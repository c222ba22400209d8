// Package traffic defines the serving layer's load model: arrival
// processes (closed-loop bursts, open-loop fixed rate, seeded
// deterministic Poisson), the Spec that parameterizes a load run, and
// the LoadReport that summarizes one — per-application offered versus
// achieved throughput and latency quantiles pulled from the obs
// latency histograms.
//
// Spec also carries the SLO surface: Deadline (with per-app
// AppDeadlines overrides) tags every arrival with an absolute latency
// budget, which the report counts misses against and the EDF
// discipline schedules by. Outcomes classify each retirement — clean,
// degraded, abandoned, or rejected (shed by admission control before
// execution) — and AppLoad's Batches/BatchedRequests report the
// coalescing the continuous-batching layer realized.
//
// The package sits below dmxsys in the import graph (it depends only on
// sim and obs) so the system driver can consume Spec and produce
// LoadReport without a cycle. All arrival streams are deterministic:
// the Poisson process uses a splitmix64 generator seeded from
// (Spec.Seed, app index), so the same spec always produces the same
// request timeline regardless of app construction order or harness
// parallelism. Spec.Arrivals yields a timeline an offset at a time, and
// Spec.Feed schedules it on a sim.Engine on demand — one pending
// arrival per app, under seqs reserved up front so the firing order is
// that of scheduling the whole timeline at once.
package traffic
