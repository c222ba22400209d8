package dmxsys_test

// Allocation pins for the serving hot path. Every per-hop constant — DRX
// service times, fabric routes, data queues, occupancy slots — is
// resolved when the plan and its replicas are built, and every step of
// the walk resumes the carrier through one callback bound per pooled
// shell (or a pooled guard ticket under faults), with fabric transfers
// joining on pooled completion records. Request records are pooled per
// System and an admission reject builds none, so a request's
// steady-state walk allocates nothing: each case measures 0.00
// allocations per request against a bound of 0.5, and anything that
// allocates once per request — a record, closure, lookup or route build
// creeping back into any step of the walk — trips it. Arrivals are fed
// on demand, so the engine's event heap stays as small as the work in
// flight and does not grow with the load.

import (
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// allocsPerRequest reports the steady-state heap allocations of one
// request: run drives a fresh load of the given size end to end, and the
// difference between a load of 2n and one of n requests, per extra
// request, cancels construction and report costs.
func allocsPerRequest(n int, run func(requests int)) float64 {
	small := testing.AllocsPerRun(5, func() { run(n) })
	large := testing.AllocsPerRun(5, func() { run(2 * n) })
	return (large - small) / float64(n)
}

// allocSpec is the pinned open-loop load: Poisson below the bump
// placement's capacity for the first Table I application.
func allocSpec(requests int) traffic.Spec {
	return traffic.Spec{Arrival: traffic.Poisson, Rate: 30000, Requests: requests, Seed: 5}
}

func TestServingAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items at random under the race detector")
	}
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	pipes := []*dmxsys.Pipeline{benches[0].Pipeline}
	for _, tc := range []struct {
		name  string
		mut   func(*dmxsys.Config)
		rate  float64
		bound float64
	}{
		{"unbatched", nil, 30000, 0.5},
		{"batched", func(c *dmxsys.Config) {
			c.BatchWindow = 200 * sim.Microsecond
			c.BatchMax = 8
		}, 30000, 0.5},
		// 1% transient DRX faults with retries: guard tickets, retry
		// backoffs and the fabric's fault path stay off the heap too.
		{"faulted", func(c *dmxsys.Config) {
			c.Faults = &faults.Plan{Seed: 3, TransientProb: 0.01}
			c.Retry = faults.RetryPolicy{MaxAttempts: 3, Backoff: 10 * sim.Microsecond}
		}, 30000, 0.5},
		// Ten times the rate against an admission limit of one: most
		// arrivals are rejected, and a reject builds no record.
		{"admit-limit", func(c *dmxsys.Config) {
			c.AdmitLimit = 1
		}, 300000, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			run := func(requests int) traffic.LoadReport {
				s, err := dmxsys.New(cfg, pipes)
				if err != nil {
					t.Fatal(err)
				}
				spec := allocSpec(requests)
				spec.Rate = tc.rate
				rep, err := s.RunLoad(spec)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			if cfg.AdmitLimit > 0 {
				if a := run(200).PerApp[0]; 2*a.Rejected <= a.Requests {
					t.Fatalf("%d of %d arrivals rejected, want most", a.Rejected, a.Requests)
				}
			}
			got := allocsPerRequest(200, func(requests int) { run(requests) })
			t.Logf("%.2f allocations per request", got)
			if got > tc.bound {
				t.Errorf("%.2f allocations per request, bound %.1f", got, tc.bound)
			}
		})
	}
}

// TestBuildAllocsPerApp pins what building a System costs per app: the
// allocations of dmxsys.New with 15 copies of one test-scale pipeline
// minus those with 5, per extra app, so the per-replica fixed cost
// cancels. The plan validates and times the shared pipeline once, a
// replica carves every app's tables out of one array per kind, and a
// device, its two links and a one-slot station are one allocation
// each; what is left per app is its device and station names, the
// links' and stations' completion closures, and its fabric routes.
// Each bound is the measured count plus half an allocation, so one
// more object per app trips it.
func TestBuildAllocsPerApp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	b, err := workload.VideoSurveillance(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	copies := func(n int) []*dmxsys.Pipeline {
		pipes := make([]*dmxsys.Pipeline, n)
		for i := range pipes {
			pipes[i] = b.Pipeline
		}
		return pipes
	}
	for _, tc := range []struct {
		p     dmxsys.Placement
		bound float64
	}{
		{dmxsys.AllCPU, 1.5},
		{dmxsys.MultiAxl, 21},
		{dmxsys.Integrated, 21},
		{dmxsys.Standalone, 26.6},
		{dmxsys.PCIeIntegrated, 25.2},
		{dmxsys.BumpInTheWire, 25},
	} {
		t.Run(tc.p.String(), func(t *testing.T) {
			cfg := dmxsys.DefaultConfig(tc.p)
			build := func(n int) float64 {
				pipes := copies(n)
				return testing.AllocsPerRun(10, func() {
					if _, err := dmxsys.New(cfg, pipes); err != nil {
						t.Fatal(err)
					}
				})
			}
			got := (build(15) - build(5)) / 10
			t.Logf("%.1f allocations per app", got)
			if got > tc.bound {
				t.Errorf("%.1f allocations per app, bound %.1f", got, tc.bound)
			}
		})
	}
}

// TestRunAllocsPerApp pins what a one-shot Run costs per app on top of
// building the System: New plus Run minus New alone, with 15 copies of
// one test-scale pipeline minus 5, per extra app, so the fixed cost
// cancels. The energy components are built once per plan stage, not per
// Run; what is left is drive's and the feed's per-app funcs, and a
// carrier shell and request record for each app in flight at once
// (All-CPU holds them all). Each bound is the measured count plus half
// an allocation.
func TestRunAllocsPerApp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	b, err := workload.VideoSurveillance(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p     dmxsys.Placement
		bound float64
	}{
		{dmxsys.AllCPU, 10.5},
		{dmxsys.MultiAxl, 5},
		{dmxsys.Integrated, 5},
		{dmxsys.Standalone, 5},
		{dmxsys.PCIeIntegrated, 5},
		{dmxsys.BumpInTheWire, 5},
	} {
		t.Run(tc.p.String(), func(t *testing.T) {
			cfg := dmxsys.DefaultConfig(tc.p)
			allocs := func(n int, run bool) float64 {
				pipes := make([]*dmxsys.Pipeline, n)
				for i := range pipes {
					pipes[i] = b.Pipeline
				}
				return testing.AllocsPerRun(10, func() {
					s, err := dmxsys.New(cfg, pipes)
					if err != nil {
						t.Fatal(err)
					}
					if run {
						if _, err := s.Run(); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
			got := (allocs(15, true) - allocs(15, false) - allocs(5, true) + allocs(5, false)) / 10
			t.Logf("%.1f allocations per app", got)
			if got > tc.bound {
				t.Errorf("%.1f allocations per app, bound %.1f", got, tc.bound)
			}
		})
	}
}
