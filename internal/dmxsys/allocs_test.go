package dmxsys_test

// Allocation pins for the serving hot path. Every per-hop constant — DRX
// service times, fabric routes, data queues, occupancy slots — is
// resolved when the plan and its replicas are built, and every step of
// the walk resumes the carrier through one callback bound per pooled
// shell (or a pooled guard ticket under faults), with fabric transfers
// joining on pooled completion records. Arrivals are fed on demand, so
// the engine's event heap stays as small as the work in flight and does
// not grow with the load. A request's steady-state walk allocates only
// its own request record: each case measures 1.00 allocation per
// request. A closure, lookup or route build creeping back into a step
// of the walk costs one allocation per step, several per request, and
// trips the bound; one extra allocation per request would not.

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
		bound float64
	}{
		{"unbatched", nil, 6},
		{"batched", func(c *dmxsys.Config) {
			c.BatchWindow = 200 * sim.Microsecond
			c.BatchMax = 8
		}, 5},
		// 1% transient DRX faults with retries: guard tickets, retry
		// backoffs and the fabric's fault path stay off the heap too.
		{"faulted", func(c *dmxsys.Config) {
			c.Faults = &faults.Plan{Seed: 3, TransientProb: 0.01}
			c.Retry = faults.RetryPolicy{MaxAttempts: 3, Backoff: 10 * sim.Microsecond}
		}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			got := allocsPerRequest(200, func(requests int) {
				s, err := dmxsys.New(cfg, pipes)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.RunLoad(allocSpec(requests)); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.2f allocations per request", got)
			if got > tc.bound {
				t.Errorf("%.2f allocations per request, bound %.0f", got, tc.bound)
			}
		})
	}
}
