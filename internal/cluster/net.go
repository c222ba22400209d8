package cluster

import (
	"fmt"

	"dmx/internal/sim"
)

// NetConfig models the fleet's inter-host network as a two-level tree:
// every message crosses the shared core once and its host's NIC once,
// each direction a separate fair-share channel — exactly how pcie
// models a switch uplink over a device link, reused at datacenter
// scale. The zero value disables the fabric entirely: requests reach
// hosts instantaneously, which is what preserves the single-host
// byte-identity of a one-host fleet.
type NetConfig struct {
	// NICBytesPerSec is each host's NIC bandwidth per direction
	// (0 = unmodeled: no NIC contention).
	NICBytesPerSec float64
	// CoreBytesPerSec is the shared core/aggregation bandwidth per
	// direction that all hosts contend on (0 = unmodeled).
	CoreBytesPerSec float64
	// Latency is the one-way propagation delay added to every message
	// after its bandwidth share drains.
	Latency sim.Duration
}

// enabled reports whether any part of the fabric is modeled.
func (c NetConfig) enabled() bool {
	return c.NICBytesPerSec > 0 || c.CoreBytesPerSec > 0 || c.Latency > 0
}

// Validate sanity-checks the configuration.
func (c NetConfig) Validate() error {
	if c.NICBytesPerSec < 0 {
		return fmt.Errorf("cluster: negative NIC bandwidth %g", c.NICBytesPerSec)
	}
	if c.CoreBytesPerSec < 0 {
		return fmt.Errorf("cluster: negative core bandwidth %g", c.CoreBytesPerSec)
	}
	if c.Latency < 0 {
		return fmt.Errorf("cluster: negative network latency %v", c.Latency)
	}
	return nil
}

// netFabric is the instantiated network: shared core channels plus one
// NIC channel pair per host, joined store-and-forward by the
// propagation delay. A nil *netFabric means the config was disabled and
// callers deliver synchronously.
type netFabric struct {
	lat              sim.Duration
	eng              *sim.Engine
	coreDown, coreUp *sim.Channel
	nicDown, nicUp   []*sim.Channel
	// legs pools the in-flight message records.
	legs []*netLeg
}

func newNetFabric(cfg NetConfig, eng *sim.Engine, hosts int) *netFabric {
	if !cfg.enabled() {
		return nil
	}
	f := &netFabric{lat: cfg.Latency, eng: eng}
	if cfg.CoreBytesPerSec > 0 {
		f.coreDown = sim.NewChannel(eng, "net.core.down", cfg.CoreBytesPerSec)
		f.coreUp = sim.NewChannel(eng, "net.core.up", cfg.CoreBytesPerSec)
	}
	if cfg.NICBytesPerSec > 0 {
		f.nicDown = make([]*sim.Channel, hosts)
		f.nicUp = make([]*sim.Channel, hosts)
		for h := 0; h < hosts; h++ {
			f.nicDown[h] = sim.NewChannel(eng, fmt.Sprintf("net.h%d.down", h), cfg.NICBytesPerSec)
			f.nicUp[h] = sim.NewChannel(eng, fmt.Sprintf("net.h%d.up", h), cfg.NICBytesPerSec)
		}
	}
	return f
}

// down ships n bytes router → host h store-and-forward: the shared core
// drains the message, the propagation delay carries it across, host h's
// NIC drains it, and done runs. With a zero latency the hop continues
// synchronously.
func (f *netFabric) down(h int, n int64, done func()) {
	var nic *sim.Channel
	if f.nicDown != nil {
		nic = f.nicDown[h]
	}
	f.send(f.coreDown, nic, n, done)
}

// up ships n bytes host h → router: NIC, propagation, core, then done
// at the router.
func (f *netFabric) up(h int, n int64, done func()) {
	var nic *sim.Channel
	if f.nicUp != nil {
		nic = f.nicUp[h]
	}
	f.send(nic, f.coreUp, n, done)
}

// netLeg is one message in flight: its first and last channel (nil when
// that level is unmodeled), its size, and where it is. Records are
// pooled on the fabric and advance is bound once per record, so a
// message allocates nothing in steady state.
type netLeg struct {
	f           *netFabric
	first, last *sim.Channel
	n           int64
	done        func()
	stage       int
	fire        func()
}

// send starts a message first → propagation → last.
func (f *netFabric) send(first, last *sim.Channel, n int64, done func()) {
	var l *netLeg
	if k := len(f.legs); k > 0 {
		l = f.legs[k-1]
		f.legs = f.legs[:k-1]
	} else {
		l = &netLeg{f: f}
		l.fire = l.advance
	}
	l.first, l.last, l.n, l.done, l.stage = first, last, n, done, 0
	l.advance()
}

// advance runs the message's next store-and-forward stage: each stage
// hands the message to a channel or to the engine and resumes here, or
// is unmodeled and falls through. The record returns to the pool before
// the last stage, which calls done directly.
func (l *netLeg) advance() {
	f := l.f
	for {
		stage := l.stage
		l.stage++
		switch stage {
		case 0:
			if l.first != nil {
				l.first.Start(l.n, l.fire)
				return
			}
		case 1:
			if f.lat > 0 {
				f.eng.Schedule(f.lat, l.fire)
				return
			}
		default:
			last, n, done := l.last, l.n, l.done
			l.first, l.last, l.done = nil, nil, nil
			f.legs = append(f.legs, l)
			if last != nil {
				last.Start(n, done)
				return
			}
			done()
			return
		}
	}
}
