package cluster

// Steady-state cost of the cluster layer's hot paths: the router
// decision and the fabric transfer sit on every request of every fleet
// experiment, so an accidental per-decision allocation multiplies
// across millions of simulated arrivals. These benchmarks report the
// timing; TestClusterHotPathAllocs pins their allocations at zero.

import (
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

func benchCaps(hosts, apps int) [][]float64 {
	caps := make([][]float64, hosts)
	for h := range caps {
		caps[h] = make([]float64, apps)
		for a := range caps[h] {
			caps[h][a] = float64(100 * (h + a + 1))
		}
	}
	return caps
}

func BenchmarkRouterPickScore(b *testing.B) {
	rt := newRouter(RouterConfig{HostAdmit: 64}, benchCaps(8, 4), 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := rt.pick(i & 3)
		rt.outstanding[h]++
		rt.outstanding[h]--
	}
}

func BenchmarkRouterPickRR(b *testing.B) {
	rt := newRouter(RouterConfig{Policy: PolicyRR}, benchCaps(8, 4), 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.pick(i & 3)
	}
}

func BenchmarkRouterObserve(b *testing.B) {
	rt := newRouter(RouterConfig{DrainIncidents: 4, DrainWindow: sim.Millisecond},
		benchCaps(4, 1), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// One new incident per call with an advancing clock: the window
		// prunes as fast as it fills, so the slice reaches steady state.
		rt.observe(i&3, i+1, sim.Time(i)*sim.Time(10*sim.Microsecond))
	}
}

func BenchmarkNetFabricTransfer(b *testing.B) {
	eng := sim.NewEngine()
	f := newNetFabric(NetConfig{
		NICBytesPerSec:  12.5e9,
		CoreBytesPerSec: 50e9,
		Latency:         2 * sim.Microsecond,
	}, eng, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		done := false
		f.down(i&3, 4096, func() { done = true })
		eng.Run()
		if !done {
			b.Fatal("transfer never completed")
		}
	}
}

// BenchmarkFleetRun prices a complete 4-host fleet run: plan, the
// replicas, the fabric and the router, end to end.
//
// Unlike the router/fabric micro-benches this one does not
// ReportAllocs: a full fleet run allocates thousands of objects
// including map overflow buckets, whose count depends on each map's
// randomized hash seed and so drifts ±1 between processes.
// TestFleetAllocsPerRequest pins the per-request allocations instead,
// as a difference of two load sizes that cancels set-up.
func BenchmarkFleetRun(b *testing.B) {
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		b.Fatal(err)
	}
	var pipe *dmxsys.Pipeline
	for _, w := range benches {
		if len(w.Pipeline.Hops) > 0 {
			pipe = w.Pipeline
			break
		}
	}
	for i := 0; i < b.N; i++ {
		f, err := New(FleetConfig{
			Hosts: 4,
			Base:  dmxsys.DefaultConfig(dmxsys.BumpInTheWire),
			Net:   NetConfig{NICBytesPerSec: 12.5e9, Latency: 2 * sim.Microsecond},
		}, []*dmxsys.Pipeline{pipe})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Run(traffic.Spec{Arrival: traffic.Poisson,
			Rate: 8000, Requests: 64, Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
