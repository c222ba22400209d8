// Package dmxsys integrates the DMX system model: it assembles the PCIe
// topology for each DRX placement, runs chained-accelerator applications
// through a discrete-event simulation of kernels, data restructuring,
// drivers, and DMA, and reports the latency/throughput/energy metrics
// the paper's evaluation section is built from.
//
// The five system configurations correspond to the paper's:
//
//   - AllCPU: every kernel and every restructuring step on the host
//     (Fig. 3's All-CPU bar);
//   - MultiAxl: kernels on accelerators, restructuring on the host CPU
//     with CPU-mediated DMA (the baseline everywhere);
//   - Integrated / Standalone / PCIeIntegrated / BumpInTheWire: the four
//     DRX placements of Sec. III (Fig. 4).
//
// Every run can be observed through internal/obs: set Config.Obs and the
// flow emits the Fig. 10 protocol sequence as typed instants (with step
// ids ①–⑪), per-request phase-attribution spans (kernel / restructure /
// movement, the Fig. 12 components), DMA spans with flow arrows between
// device tracks, and — via the sim layer — device service spans and link
// occupancy counters. The human-readable Fig. 10 log (dmxsim -trace) is
// obs.RenderText over the same stream, called from the recorder's
// OnEvent hook; RunReport.Metrics is its aggregate.
//
// There are two front-ends over one driver. Run sends one request per
// app and reports the latency/energy decomposition. RunLoad drives a
// traffic.Spec arrival process through the same request state machine
// (flow.go), whose carrier walks the pipeline for n ≥ 1 member
// requests, and reports per-app rates, latency quantiles, and outcome
// counters. Every request retires through one callback carrying a
// traffic.Retired; under RunLoad, drive counts it into a traffic.Tally
// and traffic.Spec.Report rolls the tally up, the same roll-up a fleet
// runs over its per-host tallies. A closed-loop spec is Sec. VII-A's
// continuous arrival: its Achieved rate is the measured steady-state
// throughput. The public API reaches RunLoad's behaviour through a
// one-host cluster.Fleet, which reproduces its report and trace byte
// for byte; RunLoad remains the single-host reference that identity is
// tested against.
//
// An unbatched request is a carrier of one. In front of the
// machine sits an optional continuous-batching accumulator (batch.go):
// arrivals of an app inside Config.BatchWindow coalesce onto one
// carrier — one kernel launch, one driver round trip, and one DMA
// descriptor per transfer leg — then split back out per request for
// latency and deadline accounting. Contended stations order their
// backlogs by Config.Sched (FIFO, priority, round-robin by app,
// earliest-deadline-first, shortest-remaining-service), and
// Config.AdmitLimit sheds arrivals past a per-app outstanding cap as
// rejections. Batching off (BatchWindow 0) is byte-identical to the
// unbatched path; batched members under fault injection retry and
// degrade individually.
package dmxsys
