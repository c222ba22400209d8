package pcie

import "dmx/internal/sim"

// Links reports every link the route crosses, in path order, as a fresh
// slice: mutating it never reaches the route.
func (rt *Route) Links() []LinkInfo {
	links := make([]LinkInfo, rt.Len())
	for i := range links {
		links[i] = rt.Link(i)
	}
	return links
}

// LinkStats is a channel's lifetime accounting, as the fabric tests
// inspect it.
type LinkStats struct {
	Name     string
	Bytes    int64
	BusyTime sim.Duration
	Capacity float64
}

// Stats enumerates all links (device and switch, both directions) in a
// deterministic order: each switch's uplink when its first device
// appears, then every device's link, in insertion order.
func (f *Fabric) Stats() []LinkStats {
	var out []LinkStats
	addPair := func(p *linkPair) {
		for _, ch := range []*sim.Channel{&p.up, &p.down} {
			out = append(out, LinkStats{
				Name:     ch.Name(),
				Bytes:    ch.TotalBytes,
				BusyTime: ch.BusyTime,
				Capacity: ch.Capacity(),
			})
		}
	}
	seen := make(map[string]bool)
	for _, dn := range f.order {
		sw := f.devices[dn].sw
		if !seen[sw] {
			seen[sw] = true
			addPair(&f.switches[sw].uplink)
		}
	}
	for _, dn := range f.order {
		addPair(&f.devices[dn].link)
	}
	return out
}
