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
	nic := func() {
		if f.nicDown != nil {
			f.nicDown[h].Start(n, done)
			return
		}
		done()
	}
	cross := func() {
		if f.lat > 0 {
			f.eng.Schedule(f.lat, nic)
			return
		}
		nic()
	}
	if f.coreDown != nil {
		f.coreDown.Start(n, cross)
		return
	}
	cross()
}

// up ships n bytes host h → router: NIC, propagation, core, then done
// at the router.
func (f *netFabric) up(h int, n int64, done func()) {
	core := func() {
		if f.coreUp != nil {
			f.coreUp.Start(n, done)
			return
		}
		done()
	}
	cross := func() {
		if f.lat > 0 {
			f.eng.Schedule(f.lat, core)
			return
		}
		core()
	}
	if f.nicUp != nil {
		f.nicUp[h].Start(n, cross)
		return
	}
	cross()
}
