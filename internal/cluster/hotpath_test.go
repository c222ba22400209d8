package cluster

import (
	"testing"

	"dmx/internal/sim"
)

// TestClusterHotPathAllocs pins the steady-state allocations of the
// cluster layer's per-request paths at zero: the router decision under
// score and round-robin routing, the drain window's incident fold, and
// one message down to a host and its response back up. Each sits on
// every request of every fleet run, so one allocation here multiplies
// across every simulated arrival.
func TestClusterHotPathAllocs(t *testing.T) {
	score := newRouter(RouterConfig{HostAdmit: 64}, benchCaps(8, 4), 4)
	rr := newRouter(RouterConfig{Policy: PolicyRR}, benchCaps(8, 4), 4)
	drain := newRouter(RouterConfig{DrainIncidents: 4, DrainWindow: sim.Millisecond}, benchCaps(4, 1), 1)
	eng := sim.NewEngine()
	net := newNetFabric(NetConfig{
		NICBytesPerSec:  12.5e9,
		CoreBytesPerSec: 50e9,
		Latency:         2 * sim.Microsecond,
	}, eng, 4)
	delivered := 0
	done := func() { delivered++ }
	i, incidents := 0, 0
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"pick-score", func() {
			i++
			h := score.pick(i & 3)
			score.outstanding[h]++
			score.outstanding[h]--
		}},
		{"pick-rr", func() {
			i++
			rr.pick(i & 3)
		}},
		{"observe", func() {
			// One new incident per call with an advancing clock: the
			// window prunes as fast as it fills.
			incidents++
			drain.observe(incidents&3, incidents, sim.Time(incidents)*sim.Time(10*sim.Microsecond))
		}},
		{"down-up", func() {
			i++
			net.down(i&3, 4096, done)
			net.up(i&3, 4096, done)
			eng.Run()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for w := 0; w < 100; w++ {
				tc.op() // reach steady state: pools, slabs and windows filled
			}
			if got := testing.AllocsPerRun(1000, tc.op); got != 0 {
				t.Errorf("%.2f allocations per call, want 0", got)
			}
		})
	}
	if delivered == 0 {
		t.Error("no network message was delivered")
	}
}
