package dmxsys_test

// Fault-injection behavior and determinism. The acceptance gates:
// a fixed fault seed produces byte-identical LoadReports across repeated
// runs and across sweep worker counts; requests complete (degraded, not
// failed) under DRX outages; and a disabled fault plan leaves the
// serving output byte-identical to a build with no plan at all.

import (
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/sim"
	"dmx/internal/sweep"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// faultBench returns one chained benchmark for serving tests.
func faultBench(t *testing.T) *workload.Benchmark {
	t.Helper()
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		if len(b.Pipeline.Hops) > 0 {
			return b
		}
	}
	t.Fatal("no chained benchmark in suite")
	return nil
}

// stressPlan injects every fault mechanism at rates high enough that a
// short load run observes incidents.
func stressPlan(seed uint64) *faults.Plan {
	return &faults.Plan{
		Seed:              seed,
		DRXMTBF:           2 * sim.Millisecond,
		DRXRepair:         500 * sim.Microsecond,
		TransientProb:     0.05,
		LinkMTBF:          5 * sim.Millisecond,
		LinkRepair:        200 * sim.Microsecond,
		LinkDegradeFactor: 0.25,
		StallMTBF:         5 * sim.Millisecond,
		StallRepair:       200 * sim.Microsecond,
	}
}

func faultLoad(t *testing.T, p dmxsys.Placement, plan *faults.Plan, retry faults.RetryPolicy) traffic.LoadReport {
	t.Helper()
	b := faultBench(t)
	cfg := dmxsys.DefaultConfig(p)
	cfg.Faults = plan
	cfg.Retry = retry
	s, err := dmxsys.New(cfg, []*dmxsys.Pipeline{b.Pipeline})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunLoad(traffic.Spec{
		Arrival:  traffic.Poisson,
		Rate:     4000,
		Requests: 60,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFaultedLoadCompletesEveryPlacement(t *testing.T) {
	for _, p := range []dmxsys.Placement{
		dmxsys.Integrated, dmxsys.Standalone, dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire,
	} {
		rep := faultLoad(t, p, stressPlan(11), faults.DefaultRetry())
		al := rep.PerApp[0]
		if al.Completed+al.Abandoned != al.Requests {
			t.Errorf("%v: %d completed + %d abandoned != %d issued",
				p, al.Completed, al.Abandoned, al.Requests)
		}
		if al.Completed == 0 {
			t.Errorf("%v: nothing completed under faults", p)
		}
	}
}

func TestDRXOutagesDegradeInsteadOfFailing(t *testing.T) {
	// Outage-only plan with a long repair window: hops that land in a
	// window must fall back to CPU restructuring and still complete.
	plan := &faults.Plan{Seed: 3, DRXMTBF: sim.Millisecond, DRXRepair: 2 * sim.Millisecond}
	rep := faultLoad(t, dmxsys.BumpInTheWire, plan, faults.DefaultRetry())
	al := rep.PerApp[0]
	if al.Degraded == 0 {
		t.Fatalf("no degraded completions under a %v/%v DRX outage plan", plan.DRXMTBF, plan.DRXRepair)
	}
	if al.Completed != al.Requests {
		t.Errorf("%d/%d completed; DRX outages alone must never lose requests",
			al.Completed, al.Requests)
	}
	if al.DegradedLat.Count != int64(al.Degraded) {
		t.Errorf("degraded histogram holds %d samples, %d degraded completions",
			al.DegradedLat.Count, al.Degraded)
	}
	if al.Degraded < al.Requests && al.CleanLat.Count == 0 {
		t.Error("clean completions missing from the clean histogram")
	}
}

func TestFaultSeedDeterminism(t *testing.T) {
	want := faultLoad(t, dmxsys.BumpInTheWire, stressPlan(42), faults.DefaultRetry()).String()
	for i := 0; i < 2; i++ {
		if got := faultLoad(t, dmxsys.BumpInTheWire, stressPlan(42), faults.DefaultRetry()).String(); got != want {
			t.Fatalf("run %d diverged:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestFaultDeterminismAcrossSweepWorkers(t *testing.T) {
	// The same faulted cells must render byte-identical reports no
	// matter how many sweep workers execute them: each system owns its
	// engine and injector, and all randomness is seeded per station.
	run := func(workers int) []string {
		prev := sweep.SetWorkers(workers)
		defer sweep.SetWorkers(prev)
		seeds := []uint64{1, 2, 3, 4}
		out, err := sweep.Map(seeds, func(i int, seed uint64) (string, error) {
			return faultLoad(t, dmxsys.BumpInTheWire, stressPlan(seed), faults.DefaultRetry()).String(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("cell %d: -j1 and -j4 reports differ:\n%s\nvs:\n%s", i, serial[i], parallel[i])
		}
	}
}

func TestDisabledFaultsAreByteIdentical(t *testing.T) {
	// nil plan, a zero (disabled) plan, and a retry policy with nothing
	// to retry must all produce the exact bytes of the historical
	// fault-free serving path.
	base := faultLoad(t, dmxsys.BumpInTheWire, nil, faults.RetryPolicy{})
	zero := faultLoad(t, dmxsys.BumpInTheWire, &faults.Plan{}, faults.RetryPolicy{})
	retryOnly := faultLoad(t, dmxsys.BumpInTheWire, nil, faults.DefaultRetry())
	watchdogOnly := faultLoad(t, dmxsys.BumpInTheWire, nil, faults.RetryPolicy{StageDeadline: sim.FromSeconds(1)})
	if zero.String() != base.String() {
		t.Errorf("disabled plan changed the report:\n%s\nvs:\n%s", zero, base)
	}
	if retryOnly.String() != base.String() {
		t.Errorf("idle retry policy changed the report:\n%s\nvs:\n%s", retryOnly, base)
	}
	if watchdogOnly.String() != base.String() {
		t.Errorf("never-firing watchdog changed the report:\n%s\nvs:\n%s", watchdogOnly, base)
	}
	if base.PerApp[0].Degraded != 0 || base.PerApp[0].Retries != 0 {
		t.Error("fault accounting nonzero on a fault-free run")
	}
}

func TestStageWatchdogAbandonsStalledRequests(t *testing.T) {
	// A stage deadline far below the kernel service time times every
	// kernel out; with the retry budget exhausted the request must be
	// abandoned — and still retire, so the run drains.
	b := faultBench(t)
	cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	cfg.Retry = faults.RetryPolicy{
		MaxAttempts:   2,
		Backoff:       sim.Microsecond,
		StageDeadline: sim.Nanosecond,
	}
	s, err := dmxsys.New(cfg, []*dmxsys.Pipeline{b.Pipeline})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunLoad(traffic.Spec{Arrival: traffic.OpenLoop, Rate: 1000, Requests: 5})
	if err != nil {
		t.Fatal(err)
	}
	al := rep.PerApp[0]
	if al.Abandoned != al.Requests {
		t.Errorf("%d/%d abandoned under an impossible stage deadline", al.Abandoned, al.Requests)
	}
	if al.Timeouts == 0 || al.Retries == 0 {
		t.Errorf("timeouts=%d retries=%d; expected watchdog activity", al.Timeouts, al.Retries)
	}
}

// TestDeadlineAloneDegradesToHost sets a stage deadline with no fault
// plan on a DRX too slow to meet it: every placement with a DRX must
// time each hop out and restructure it on the host instead, losing no
// request.
func TestDeadlineAloneDegradesToHost(t *testing.T) {
	b := faultBench(t)
	for _, p := range []dmxsys.Placement{
		dmxsys.Integrated, dmxsys.Standalone, dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire,
	} {
		cfg := dmxsys.DefaultConfig(p)
		cfg.DRX.DRAMBytesPerSec = 1e6
		cfg.Retry = faults.RetryPolicy{MaxAttempts: 1, StageDeadline: 50 * sim.Microsecond}
		s, err := dmxsys.New(cfg, []*dmxsys.Pipeline{b.Pipeline})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunLoad(traffic.Spec{Arrival: traffic.OpenLoop, Rate: 1000, Requests: 5})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		al := rep.PerApp[0]
		if al.Completed != al.Requests || al.Degraded != al.Requests {
			t.Errorf("%v: %d completed, %d degraded of %d", p, al.Completed, al.Degraded, al.Requests)
		}
	}
}
