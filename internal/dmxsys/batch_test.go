package dmxsys_test

// Continuous batching, SLO scheduling, and admission control. The
// acceptance gates: window=0 is byte-identical to the unbatched serving
// path; batched runs are byte-identical at any sweep worker count; the
// batch accumulator adds no steady-state allocations over the solo
// path; a member's transient fault peels it out of the batch without
// poisoning batchmates; EDF beats FIFO on deadline-miss rate; and
// admission control bounds backlog growth past the capacity bound.

import (
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/sim"
	"dmx/internal/sweep"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// batchedLoad builds a fresh system with the given mutations applied to
// a bump-in-the-wire config and runs one Poisson load.
func batchedLoad(t *testing.T, mut func(*dmxsys.Config), spec traffic.Spec) traffic.LoadReport {
	t.Helper()
	b := faultBench(t)
	cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	if mut != nil {
		mut(&cfg)
	}
	s, err := dmxsys.New(cfg, []*dmxsys.Pipeline{b.Pipeline, b.Pipeline})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunLoad(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func poissonSpec(seed uint64) traffic.Spec {
	return traffic.Spec{Arrival: traffic.Poisson, Rate: 20000, Requests: 48, Seed: seed}
}

// TestBatchWindowZeroByteIdenticalToUnbatched pins the window=0 escape
// hatch: a config that names BatchWindow: 0 explicitly must take the
// historical per-request path bit-for-bit (the golden stream test pins
// those bytes; this test pins that zero-window routing reaches them).
func TestBatchWindowZeroByteIdenticalToUnbatched(t *testing.T) {
	base := batchedLoad(t, nil, poissonSpec(5)).String()
	zero := batchedLoad(t, func(c *dmxsys.Config) { c.BatchWindow = 0; c.BatchMax = 0 }, poissonSpec(5)).String()
	if base != zero {
		t.Fatalf("window=0 diverged from the unbatched path:\n%s\nwant:\n%s", zero, base)
	}
}

// TestBatchedLoadCompletesEveryPlacement walks the batched machine over
// every DRX placement and checks per-request completion accounting.
func TestBatchedLoadCompletesEveryPlacement(t *testing.T) {
	b := faultBench(t)
	for _, p := range []dmxsys.Placement{
		dmxsys.MultiAxl, dmxsys.Integrated, dmxsys.Standalone,
		dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire,
	} {
		cfg := dmxsys.DefaultConfig(p)
		cfg.BatchWindow = 200 * sim.Microsecond
		s, err := dmxsys.New(cfg, []*dmxsys.Pipeline{b.Pipeline, b.Pipeline})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunLoad(traffic.Spec{Arrival: traffic.OpenLoop, Rate: 50000, Requests: 32})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for _, al := range rep.PerApp {
			if al.Completed != al.Requests {
				t.Errorf("%v %s: %d/%d completed", p, al.App, al.Completed, al.Requests)
			}
			if al.Batches == 0 || al.BatchedRequests == 0 {
				t.Errorf("%v %s: no batches formed under a 200us window at 50k req/s", p, al.App)
			}
			if al.BatchedRequests > al.Requests {
				t.Errorf("%v %s: %d batched members exceed %d issued",
					p, al.App, al.BatchedRequests, al.Requests)
			}
		}
	}
}

// batchedLoadReportFor replays one fully-loaded serving configuration —
// batching window, EDF with per-app deadlines, admission control — so
// the determinism test can compare across worker counts.
func batchedLoadReportFor(seed uint64) (string, error) {
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		return "", err
	}
	cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	cfg.BatchWindow = 150 * sim.Microsecond
	cfg.BatchMax = 8
	cfg.Sched = dmxsys.SchedEDF
	cfg.AdmitLimit = 24
	s, err := dmxsys.New(cfg, []*dmxsys.Pipeline{benches[0].Pipeline, benches[1].Pipeline})
	if err != nil {
		return "", err
	}
	rep, err := s.RunLoad(traffic.Spec{
		Arrival:      traffic.Poisson,
		Rate:         30000,
		Requests:     40,
		Seed:         seed,
		Deadline:     2 * sim.Millisecond,
		AppDeadlines: []sim.Duration{500 * sim.Microsecond},
	})
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// TestBatchedRunLoadDeterministicAcrossWorkers extends the serving
// determinism contract to the batched path: the same seed and spec must
// produce a byte-identical LoadReport at any sweep pool width.
func TestBatchedRunLoadDeterministicAcrossWorkers(t *testing.T) {
	seeds := []uint64{1, 2, 3, 7}
	runAll := func(workers int) []string {
		prev := sweep.SetWorkers(workers)
		defer sweep.SetWorkers(prev)
		out, err := sweep.Map(seeds, func(_ int, seed uint64) (string, error) {
			return batchedLoadReportFor(seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := runAll(1)
	par := runAll(8)
	for i := range seeds {
		if seq[i] != par[i] {
			t.Errorf("seed %d: batched report differs between -j 1 and -j 8:\n-j1:\n%s\n-j8:\n%s",
				seeds[i], seq[i], par[i])
		}
	}
	if seq[0] == seq[1] {
		t.Error("different seeds produced identical batched reports")
	}
}

// TestBatchMemberTransientPeelsAlone is the fault-isolation contract:
// when one member of a batch rolls a transient restructure fault, that
// member alone retries/degrades on the solo ladder while its batchmates
// complete clean. A closed-loop burst under one wide window forms the
// batch; MaxAttempts=1 turns each peeled member's retry straight into
// CPU degradation, making the split observable in the outcome counts.
func TestBatchMemberTransientPeelsAlone(t *testing.T) {
	b := faultBench(t)
	cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	cfg.BatchWindow = 500 * sim.Microsecond
	cfg.Faults = &faults.Plan{Seed: 9, TransientProb: 0.2}
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 1}
	s, err := dmxsys.New(cfg, []*dmxsys.Pipeline{b.Pipeline})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunLoad(traffic.Spec{Arrival: traffic.ClosedLoop, Requests: 16})
	if err != nil {
		t.Fatal(err)
	}
	al := rep.PerApp[0]
	if al.Batches == 0 {
		t.Fatal("burst formed no batch under a 500us window")
	}
	if al.Completed != al.Requests || al.Abandoned != 0 {
		t.Fatalf("%d/%d completed, %d abandoned; transients must degrade, never lose requests",
			al.Completed, al.Requests, al.Abandoned)
	}
	if al.Degraded == 0 {
		t.Fatal("no member degraded under a 20% transient fault rate (seed too lucky: pick another)")
	}
	if al.Degraded == al.Requests {
		t.Fatal("every member degraded: a single transient poisoned the whole batch")
	}
	if al.CleanLat.Count == 0 {
		t.Error("clean batchmates missing from the clean latency histogram")
	}
}

// TestBatchShellRecyclingStaysLive is the regression test for two
// recycling bugs in the carrier pool. First, a shell returned to the
// pool is marked dead so stale completions from its old life drop — but
// newCarrier must revive it, or every completion guard of a walk built
// on a recycled shell is silently discarded and the run deadlocks.
// Second, the epoch must stay monotone across lives: if release reset
// it to zero, a guarded closure captured in a previous life (a stale
// kernel job still queued in a server) could match the fresh shell's
// epoch and corrupt the new walk (ABA). Every request rides a pooled
// carrier, batched or not, so both hazards apply to the unbatched path
// too. A retry policy alone makes the system hazardous — guard() is live
// without any injected fault — and an open-loop burst retires carriers
// while later arrivals take them, so shells recycle; under a 200us
// window it also closes several batches per app.
func TestBatchShellRecyclingStaysLive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window sim.Duration
	}{
		{"unbatched", 0},
		{"window=200us", 200 * sim.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := batchedLoad(t, func(c *dmxsys.Config) {
				c.BatchWindow = tc.window
				c.Retry = faults.RetryPolicy{MaxAttempts: 3, Backoff: 10 * sim.Microsecond}
			}, traffic.Spec{Arrival: traffic.OpenLoop, Rate: 50000, Requests: 32})
			for _, al := range rep.PerApp {
				if tc.window > 0 && al.Batches < 2 {
					t.Fatalf("%s: only %d batch formed; the repro needs recycled shells",
						al.App, al.Batches)
				}
				if al.Completed != al.Requests {
					t.Fatalf("%s: %d/%d completed; a recycled carrier shell dropped completions",
						al.App, al.Completed, al.Requests)
				}
			}
		})
	}
}

// TestEDFBeatsFIFOOnMissRate pins the SLO win. Disciplines only
// reorder work where a station is actually shared and backlogged, so
// the scenario is built for contention: the integrated placement (one
// DRX serving every app), four apps hammering it, the DRX narrowed to
// 2 RE lanes so restructuring — not the per-app accelerators — is the
// bottleneck, and one app holding a deadline an order of magnitude
// tighter than the rest. Under arrival order the tight app's requests
// wait behind the loose apps' backlog and blow their budget;
// earliest-deadline-first must strictly reduce total misses.
func TestEDFBeatsFIFOOnMissRate(t *testing.T) {
	bench := faultBench(t)
	missed := func(sched dmxsys.SchedPolicy) int {
		cfg := dmxsys.DefaultConfig(dmxsys.Integrated)
		cfg.Sched = sched
		cfg.DRX = cfg.DRX.WithLanes(2)
		pipes := make([]*dmxsys.Pipeline, 4)
		for i := range pipes {
			pipes[i] = bench.Pipeline
		}
		s, err := dmxsys.New(cfg, pipes)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunLoad(traffic.Spec{
			Arrival:      traffic.Poisson,
			Rate:         100000,
			Requests:     64,
			Seed:         11,
			Deadline:     500 * sim.Millisecond,
			AppDeadlines: []sim.Duration{sim.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, al := range rep.PerApp {
			total += al.Missed
		}
		return total
	}
	fifo := missed(dmxsys.SchedFIFO)
	edf := missed(dmxsys.SchedEDF)
	if fifo == 0 {
		t.Fatal("FIFO missed nothing: the load is too light to differentiate disciplines")
	}
	if edf >= fifo {
		t.Fatalf("EDF missed %d deadlines, FIFO %d; EDF must strictly win", edf, fifo)
	}
}

// TestSRSCompletesAndReordersByRemainingService sanity-checks the
// second SLO discipline end to end: shortest-remaining-service keeps
// the serving contract (everything completes, reports stay
// deterministic) while ordering by the per-stage occupancy model.
func TestSRSCompletesAndReordersByRemainingService(t *testing.T) {
	rep := batchedLoad(t, func(c *dmxsys.Config) { c.Sched = dmxsys.SchedSRS }, poissonSpec(3))
	for _, al := range rep.PerApp {
		if al.Completed != al.Requests {
			t.Fatalf("%s: %d/%d completed under SRS", al.App, al.Completed, al.Requests)
		}
	}
	again := batchedLoad(t, func(c *dmxsys.Config) { c.Sched = dmxsys.SchedSRS }, poissonSpec(3))
	if rep.String() != again.String() {
		t.Fatal("SRS runs are not deterministic")
	}
}

// TestAdmissionControlCapsBacklog drives an app at several times its
// capacity and checks that AdmitLimit holds the line: arrivals beyond
// the outstanding cap are rejected (counted, never executed), nothing
// is lost silently, and the worst-case latency stays strictly below the
// uncontrolled run's (bounded backlog instead of unbounded queueing).
func TestAdmissionControlCapsBacklog(t *testing.T) {
	spec := traffic.Spec{Arrival: traffic.OpenLoop, Rate: 60000, Requests: 64}
	open := batchedLoad(t, nil, spec)
	capped := batchedLoad(t, func(c *dmxsys.Config) { c.AdmitLimit = 8 }, spec)
	for i, al := range capped.PerApp {
		if al.Rejected == 0 {
			t.Fatalf("%s: no rejections at several times capacity with AdmitLimit=8", al.App)
		}
		if al.Completed+al.Rejected != al.Requests {
			t.Fatalf("%s: %d completed + %d rejected != %d issued",
				al.App, al.Completed, al.Rejected, al.Requests)
		}
		if al.Max >= open.PerApp[i].Max {
			t.Errorf("%s: admission-controlled max latency %v is no better than uncontrolled %v",
				al.App, al.Max, open.PerApp[i].Max)
		}
	}
}

// TestBatchAccumulatorSteadyStateAllocs pins the accumulator's
// allocation behavior: a batched load may not allocate more than the
// unbatched serving path plus a small one-time budget (the first
// window's pending slice and the first carrier shells; both recycle).
func TestBatchAccumulatorSteadyStateAllocs(t *testing.T) {
	b := faultBench(t)
	spec := traffic.Spec{Arrival: traffic.OpenLoop, Rate: 50000, Requests: 64}
	measure := func(window sim.Duration) float64 {
		return testing.AllocsPerRun(3, func() {
			cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
			cfg.BatchWindow = window
			s, err := dmxsys.New(cfg, []*dmxsys.Pipeline{b.Pipeline})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunLoad(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	unbatched := measure(0)
	batched := measure(200 * sim.Microsecond)
	// The batched walk shares one carrier's walk across its members, so
	// steady state must come out at or below the solo path plus the
	// one-time accumulator budget.
	if slack := unbatched*0.05 + 32; batched > unbatched+slack {
		t.Errorf("batched run allocates %.0f objects, unbatched %.0f (+%.0f allowed)",
			batched, unbatched, slack)
	}
}
