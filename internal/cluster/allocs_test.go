package cluster_test

// Allocation pin for the fleet's per-request path: the router's arrival
// handler is one func value per app, a routed request rides a pooled
// arrival record whose callbacks are bound once, and the host underneath
// walks it without per-step closures on a pooled request record, so a
// routed request allocates nothing: it measures 0.00 allocations per
// request, and the bound is 0.5, so one allocation per request trips
// it.

import (
	"testing"

	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/traffic"
)

func TestFleetAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items at random under the race detector")
	}
	pipes := []*dmxsys.Pipeline{chainedBench(t).Pipeline}
	run := func(requests int) {
		f, err := cluster.New(cluster.FleetConfig{Hosts: 1, Base: dmxsys.DefaultConfig(dmxsys.BumpInTheWire)}, pipes)
		if err != nil {
			t.Fatal(err)
		}
		spec := traffic.Spec{Arrival: traffic.Poisson, Rate: 30000, Requests: requests, Seed: 5}
		if _, err := f.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	// A load of 2n against one of n, per extra request: fleet
	// construction and the report cancel.
	const n = 200
	small := testing.AllocsPerRun(5, func() { run(n) })
	large := testing.AllocsPerRun(5, func() { run(2 * n) })
	got := (large - small) / n
	t.Logf("%.2f allocations per request", got)
	const bound = 0.5
	if got > bound {
		t.Errorf("%.2f allocations per request, bound %.1f", got, bound)
	}
}
