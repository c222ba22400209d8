package dmxsys_test

// The Plan/Instantiate split's own gates: the capacity bound derived
// from one request of each app walking alone must agree exactly with
// the occupancy a run of every app at once measures, deriving it must
// not touch the serving-side configuration, and the process-wide DRX
// program cache, which also holds each program's timing, must never
// serve one host's times to a host with different DRX hardware.

import (
	"reflect"
	"sync"
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

func suitePipelines(t *testing.T) []*dmxsys.Pipeline {
	t.Helper()
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	var pipes []*dmxsys.Pipeline
	for _, b := range benches {
		pipes = append(pipes, b.Pipeline)
	}
	return pipes
}

func TestPlanCapacityMatchesMeasured(t *testing.T) {
	pipes := suitePipelines(t)
	for _, p := range []dmxsys.Placement{
		dmxsys.MultiAxl, dmxsys.Integrated, dmxsys.Standalone,
		dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire, dmxsys.AllCPU,
	} {
		t.Run(p.String(), func(t *testing.T) {
			plan, err := dmxsys.NewPlan(dmxsys.DefaultConfig(p), pipes)
			if err != nil {
				t.Fatal(err)
			}
			s, err := plan.Instantiate(sim.NewEngine(), dmxsys.HostOpts{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			caps, err := plan.Capacities()
			if err != nil {
				t.Fatal(err)
			}
			for i, ar := range rep.Apps {
				c := caps[i]
				if c.PerRequest <= 0 || c.PerSecond <= 0 {
					t.Fatalf("app %d: degenerate capacity %+v", i, c)
				}
				if ar.Bottleneck != c.PerRequest || ar.BottleneckResource != c.Resource {
					t.Errorf("app %d: measured bottleneck %v on %q, plan predicts %v on %q",
						i, ar.Bottleneck, ar.BottleneckResource, c.PerRequest, c.Resource)
				}
			}
		})
	}
}

// TestCapacitiesIsolated pins that deriving the bounds neither reads
// nor perturbs the serving-side configuration: a plan carrying an
// enabled fault plan, a retry policy, a batch window and a recorder
// rendering the text log from its OnEvent hook derives exactly the
// plain plan's bounds, the recorder stays empty and the hook never
// renders a line (DESIGN.md §7, no perturbation).
// Four goroutines deriving from one shared plan must agree; the race
// job runs this too.
func TestCapacitiesIsolated(t *testing.T) {
	pipes := suitePipelines(t)
	for _, p := range []dmxsys.Placement{
		dmxsys.MultiAxl, dmxsys.Integrated, dmxsys.Standalone,
		dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire, dmxsys.AllCPU,
	} {
		t.Run(p.String(), func(t *testing.T) {
			// A slow DRX clock makes the DRX units the bottleneck wherever
			// they serve hops, so charging them twice would show.
			cfg := dmxsys.DefaultConfig(p)
			cfg.DRX.ClockHz /= 20
			plain, err := dmxsys.NewPlan(cfg, pipes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Capacities()
			if err != nil {
				t.Fatal(err)
			}

			// Nine restructures in ten fault and are retried up to eight
			// times: a walk under this plan charges its DRX units several
			// times over and reports a different bottleneck.
			fp := stressPlan(3)
			fp.DRXMTBF = 0
			fp.TransientProb = 0.9
			cfg.Faults = fp
			cfg.Retry = faults.DefaultRetry()
			cfg.Retry.MaxAttempts = 8
			cfg.BatchWindow = 200 * sim.Microsecond
			rec := obs.New()
			lines := 0
			rec.OnEvent = func(ev *obs.Event) {
				if _, ok := obs.RenderText(ev); ok {
					lines++
				}
			}
			cfg.Obs = rec
			noisy, err := dmxsys.NewPlan(cfg, pipes)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			got := make([][]dmxsys.Capacity, 4)
			errs := make([]error, len(got))
			for g := range got {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					got[g], errs[g] = noisy.Capacities()
				}(g)
			}
			wg.Wait()
			for g := range got {
				if errs[g] != nil {
					t.Fatal(errs[g])
				}
				if !reflect.DeepEqual(got[g], want) {
					t.Errorf("goroutine %d derived %+v, plain plan %+v", g, got[g], want)
				}
			}
			if n := rec.Len(); n != 0 || lines != 0 {
				t.Errorf("deriving bounds emitted %d events and %d trace lines", n, lines)
			}
		})
	}
}

func TestPlanReplicasIndependent(t *testing.T) {
	// Two replicas of one plan on one engine must not share mutable
	// state: loading one replica cannot change the other's report.
	pipes := suitePipelines(t)[:1]
	cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	plan, err := dmxsys.NewPlan(cfg, pipes)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	a, err := plan.Instantiate(eng, dmxsys.HostOpts{Prefix: "h0/"})
	if err != nil {
		t.Fatal(err)
	}
	bSys, err := plan.Instantiate(eng, dmxsys.HostOpts{Prefix: "h1/"})
	if err != nil {
		t.Fatal(err)
	}
	var aDone, bDone int
	for i := 0; i < 6; i++ {
		a.Admit(0, 0, func(traffic.Retired) { aDone++ })
	}
	bSys.Admit(0, 0, func(traffic.Retired) { bDone++ })
	eng.Run()
	if a.Err() != nil || bSys.Err() != nil {
		t.Fatal(a.Err(), bSys.Err())
	}
	if aDone != 6 || bDone != 1 {
		t.Fatalf("replica retirements crossed: %d and %d", aDone, bDone)
	}
}

func TestDRXClockCacheRegression(t *testing.T) {
	// Two hosts differing only in DRX clock must compute different
	// restructuring times. Before the cache key carried the full DRX
	// config, the process-wide cache could serve host A's time to host
	// B whenever only an unkeyed field (clock, instruction cache, DRAM
	// size) differed.
	pipes := suitePipelines(t)
	var kernel = func() *dmxsys.Pipeline {
		for _, p := range pipes {
			if len(p.Hops) > 0 {
				return p
			}
		}
		t.Fatal("no chained pipeline in suite")
		return nil
	}()
	k := kernel.Hops[0].Kernel

	fast := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	slow := fast
	slow.DRX.ClockHz = fast.DRX.ClockHz / 4

	if _, err := dmxsys.New(fast, []*dmxsys.Pipeline{kernel}); err != nil {
		t.Fatal(err)
	}
	ft, err := dmxsys.DRXTimeOf(fast.DRX, k)
	if err != nil {
		t.Fatal(err)
	}
	// Built second, so a mis-keyed cache would serve it the fast host's
	// entry for the same kernel.
	if _, err := dmxsys.New(slow, []*dmxsys.Pipeline{kernel}); err != nil {
		t.Fatal(err)
	}
	st, err := dmxsys.DRXTimeOf(slow.DRX, k)
	if err != nil {
		t.Fatal(err)
	}
	if st <= ft {
		t.Fatalf("quarter-clock DRX served %q in %v, fast host in %v: cached time crossed hosts",
			k.Name, st, ft)
	}
}
