package pcie

import (
	"errors"
	"fmt"

	"dmx/internal/sim"
)

// ErrLinkDown marks a transfer rejected because a link on its path is
// in a full-loss fault window. Callers distinguish it (errors.Is) from
// structural route errors: a down link is retryable, a bad route is a
// bug.
var ErrLinkDown = errors.New("pcie: link down")

// LinkFaults is the fabric's fault-injection hook: given a channel name
// and the current virtual time it reports whether the link is fully
// down (transfers fail with ErrLinkDown) or degraded (factor < 1 is the
// fraction of bandwidth retained; serialization stretches by 1/factor).
// A healthy link reports (false, 1). The hook must be deterministic in
// its arguments — internal/faults satisfies this with seeded
// per-station timelines.
type LinkFaults interface {
	LinkState(name string, at sim.Time) (down bool, factor float64)
}

// Gen is a PCIe generation (the Fig. 19 sensitivity axis).
type Gen int

// Supported generations.
const (
	Gen3 Gen = 3
	Gen4 Gen = 4
	Gen5 Gen = 5
)

// BytesPerSecPerLane reports the effective per-lane data bandwidth:
// raw signaling (8/16/32 GT/s) after 128b/130b encoding and ~20% TLP
// header/flow-control overhead.
func (g Gen) BytesPerSecPerLane() float64 {
	switch g {
	case Gen3:
		return 0.985e9 * 0.8
	case Gen4:
		return 1.969e9 * 0.8
	case Gen5:
		return 3.938e9 * 0.8
	}
	panic(fmt.Sprintf("pcie: unknown generation %d", int(g)))
}

func (g Gen) String() string { return fmt.Sprintf("Gen%d", int(g)) }

// LinkConfig is one link's width and generation.
type LinkConfig struct {
	Gen   Gen
	Lanes int
}

// Bandwidth reports the link's effective one-direction bandwidth.
func (lc LinkConfig) Bandwidth() float64 {
	return lc.Gen.BytesPerSecPerLane() * float64(lc.Lanes)
}

func (lc LinkConfig) String() string { return fmt.Sprintf("%v x%d", lc.Gen, lc.Lanes) }

// Timing constants.
const (
	// SwitchPortLatency is the port-to-port latency of one PCIe switch.
	SwitchPortLatency = 110 * sim.Nanosecond
	// RootComplexLatency is the tax for crossing the CPU's root complex
	// between two switches.
	RootComplexLatency = 250 * sim.Nanosecond
)

// Root is the reserved endpoint name of the CPU root complex.
const Root = "cpu"

// linkPair is one full-duplex link: up carries traffic toward the root,
// down away from it. Both channels live in the pair, so a device or
// switch is one allocation.
type linkPair struct {
	up   sim.Channel
	down sim.Channel
}

// init sets up the pair as name.up and name.down; one string backs both
// channel names.
func (p *linkPair) init(eng *sim.Engine, name string, lc LinkConfig) {
	names := name + ".up" + name + ".down"
	cut := len(name) + len(".up")
	p.up.Init(eng, names[:cut], lc.Bandwidth())
	p.down.Init(eng, names[cut:], lc.Bandwidth())
}

type device struct {
	name string
	sw   string
	link linkPair
}

type swtch struct {
	name   string
	uplink linkPair // to the root complex
}

// Fabric is a two-level PCIe topology: a root complex, switches on its
// root ports, and devices on switch downstream ports — the shape of the
// paper's evaluation server (Fig. 4).
type Fabric struct {
	eng      *sim.Engine
	switches map[string]*swtch
	devices  map[string]*device

	// faults, when set, is consulted on every transfer start. nil (the
	// default) is the fault-free fabric with zero per-transfer overhead
	// beyond one branch, preserving historical behavior bit-for-bit.
	faults LinkFaults

	// completions pools the per-transfer completion records.
	completions []*completion
}

// SetFaults installs the fault hook (nil restores the healthy fabric).
func (f *Fabric) SetFaults(h LinkFaults) { f.faults = h }

// New creates an empty fabric on the engine.
func New(eng *sim.Engine) *Fabric {
	return &Fabric{
		eng:      eng,
		switches: make(map[string]*swtch),
		devices:  make(map[string]*device),
	}
}

// AddSwitch attaches a switch to the root complex with the given uplink.
func (f *Fabric) AddSwitch(name string, uplink LinkConfig) error {
	if name == Root {
		return fmt.Errorf("pcie: %q is reserved for the root complex", Root)
	}
	if _, dup := f.switches[name]; dup {
		return fmt.Errorf("pcie: duplicate switch %q", name)
	}
	sw := &swtch{name: name}
	sw.uplink.init(f.eng, name, uplink)
	f.switches[name] = sw
	return nil
}

// AddDevice attaches a device to a switch's downstream port.
func (f *Fabric) AddDevice(name, sw string, link LinkConfig) error {
	if name == Root {
		return fmt.Errorf("pcie: %q is reserved for the root complex", Root)
	}
	if _, ok := f.switches[sw]; !ok {
		return fmt.Errorf("pcie: unknown switch %q", sw)
	}
	if _, dup := f.devices[name]; dup {
		return fmt.Errorf("pcie: duplicate device %q", name)
	}
	d := &device{name: name, sw: sw}
	d.link.init(f.eng, name, link)
	f.devices[name] = d
	return nil
}

// SwitchOf reports which switch a device hangs from.
func (f *Fabric) SwitchOf(name string) (string, bool) {
	d, ok := f.devices[name]
	if !ok {
		return "", false
	}
	return d.sw, true
}

// MaxLinks is the most links a route crosses: device → switch → root
// complex → switch → device.
const MaxLinks = 4

// Route is a resolved transfer path between two endpoints: the
// channels a DMA occupies, in path order, and the path's fixed hop
// latency. Resolving it once and reusing it through TransferRoute keeps
// name lookups and path building off the per-transfer path.
type Route struct {
	// hops[:n] is the path.
	hops [MaxLinks]*sim.Channel
	n    int
	lat  sim.Duration
}

func newRoute(lat sim.Duration, path ...*sim.Channel) *Route {
	rt := &Route{n: len(path), lat: lat}
	copy(rt.hops[:], path)
	return rt
}

// path is the route's channels in path order.
func (rt *Route) path() []*sim.Channel { return rt.hops[:rt.n] }

// Route resolves the path of a Transfer between endpoints (device names
// or Root).
func (f *Fabric) Route(from, to string) (*Route, error) {
	if from == to {
		return nil, fmt.Errorf("pcie: transfer from %q to itself", from)
	}
	if from == Root {
		d, ok := f.devices[to]
		if !ok {
			return nil, fmt.Errorf("pcie: unknown device %q", to)
		}
		sw := f.switches[d.sw]
		return newRoute(SwitchPortLatency+RootComplexLatency, &sw.uplink.down, &d.link.down), nil
	}
	if to == Root {
		d, ok := f.devices[from]
		if !ok {
			return nil, fmt.Errorf("pcie: unknown device %q", from)
		}
		sw := f.switches[d.sw]
		return newRoute(SwitchPortLatency+RootComplexLatency, &d.link.up, &sw.uplink.up), nil
	}
	src, ok := f.devices[from]
	if !ok {
		return nil, fmt.Errorf("pcie: unknown device %q", from)
	}
	dst, ok := f.devices[to]
	if !ok {
		return nil, fmt.Errorf("pcie: unknown device %q", to)
	}
	if src.sw == dst.sw {
		// Peer-to-peer under one switch: traffic multiplexes through the
		// switch without touching the upstream port.
		return newRoute(SwitchPortLatency, &src.link.up, &dst.link.down), nil
	}
	s1, s2 := f.switches[src.sw], f.switches[dst.sw]
	return newRoute(2*SwitchPortLatency+RootComplexLatency,
		&src.link.up, &s1.uplink.up, &s2.uplink.down, &dst.link.down), nil
}

// UpRoute resolves the path from a device into its switch: the
// device's upstream link, terminating at the switch (e.g. at a
// switch-integrated DRX) after one port crossing.
func (f *Fabric) UpRoute(dev string) (*Route, error) {
	d, ok := f.devices[dev]
	if !ok {
		return nil, fmt.Errorf("pcie: unknown device %q", dev)
	}
	return newRoute(SwitchPortLatency, &d.link.up), nil
}

// DownRoute resolves the path from a device's switch to the device:
// its downstream link.
func (f *Fabric) DownRoute(dev string) (*Route, error) {
	d, ok := f.devices[dev]
	if !ok {
		return nil, fmt.Errorf("pcie: unknown device %q", dev)
	}
	return newRoute(SwitchPortLatency, &d.link.down), nil
}

// LinkInfo identifies one channel on a transfer path for capacity
// analysis: its name and one-direction bandwidth in bytes/second.
type LinkInfo struct {
	Name      string
	Bandwidth float64
}

// Len reports how many links the route crosses.
func (rt *Route) Len() int { return rt.n }

// Link describes the route's i-th link in path order: occupancy
// accounting charges a payload's serialization time against every link
// a route crosses.
func (rt *Route) Link(i int) LinkInfo {
	ch := rt.path()[i]
	return LinkInfo{Name: ch.Name(), Bandwidth: ch.Capacity()}
}

// Transfer starts a DMA of n bytes between endpoints (device names or
// Root) and calls done when the last byte arrives. It resolves the route
// on every call; hot paths resolve it once and use TransferRoute.
func (f *Fabric) Transfer(from, to string, n int64, done func()) error {
	rt, err := f.Route(from, to)
	if err != nil {
		return err
	}
	return f.TransferRoute(rt, n, done)
}

// TransferRoute starts a DMA of n bytes along a resolved route and calls
// done when the last byte arrives. The flow occupies every link on the
// path; completion is governed by the slowest (fair-share) link, plus
// the path's fixed hop latency. The links join on a completion record
// pooled on the fabric, so a transfer allocates nothing in steady state.
func (f *Fabric) TransferRoute(rt *Route, n int64, done func()) error {
	c := f.completion(rt, done)
	if f.faults == nil {
		// Healthy fast path: no fault queries — bit-for-bit the
		// historical behavior.
		for _, ch := range rt.path() {
			ch.Start(n, c.fire)
		}
		return nil
	}
	// Fault-aware path: a down link rejects the whole transfer before
	// any channel is touched; a degraded link stretches its own
	// serialization by 1/factor (link-level retransmission at the
	// reduced rate — the extra bytes also count as moved traffic).
	// LinkState counts incidents, so each link is queried exactly once,
	// in path order, and the loads wait on the record.
	now := f.eng.Now()
	c.loads = c.loads[:0]
	for _, ch := range rt.path() {
		load, err := f.linkLoad(ch, n, now)
		if err != nil {
			f.recycle(c)
			return err
		}
		c.loads = append(c.loads, load)
	}
	for i, ch := range rt.path() {
		ch.Start(c.loads[i], c.fire)
	}
	return nil
}

// completion joins one transfer's links: each link's drain calls fire
// (linkDone bound once per record), and the last schedules done after
// the route's hop latency.
type completion struct {
	f         *Fabric
	remaining int
	lat       sim.Duration
	done      func()
	loads     []int64
	fire      func()
}

// completion takes a record from the fabric's pool for a transfer along
// rt.
func (f *Fabric) completion(rt *Route, done func()) *completion {
	var c *completion
	if n := len(f.completions); n > 0 {
		c = f.completions[n-1]
		f.completions = f.completions[:n-1]
	} else {
		c = &completion{f: f}
		c.fire = c.linkDone
	}
	c.remaining, c.lat, c.done = rt.n, rt.lat, done
	return c
}

// recycle returns a record to the pool.
func (f *Fabric) recycle(c *completion) {
	c.done = nil
	f.completions = append(f.completions, c)
}

// linkDone is one link draining. The record is recycled when the last
// link completes, before done is scheduled.
func (c *completion) linkDone() {
	c.remaining--
	if c.remaining > 0 {
		return
	}
	f, lat, done := c.f, c.lat, c.done
	f.recycle(c)
	if done != nil {
		f.eng.Schedule(lat, done)
	}
}

// linkLoad resolves one channel's effective payload under the fault
// hook at the given instant.
func (f *Fabric) linkLoad(ch *sim.Channel, n int64, now sim.Time) (int64, error) {
	down, factor := f.faults.LinkState(ch.Name(), now)
	if down {
		return 0, fmt.Errorf("%w: %s", ErrLinkDown, ch.Name())
	}
	if factor > 0 && factor < 1 {
		return int64(float64(n) / factor), nil
	}
	return n, nil
}

// TotalBytes sums traffic across all links — the fabric-wide data
// movement the energy model charges per byte.
func (f *Fabric) TotalBytes() int64 {
	var n int64
	for _, sw := range f.switches {
		n += sw.uplink.up.TotalBytes + sw.uplink.down.TotalBytes
	}
	for _, d := range f.devices {
		n += d.link.up.TotalBytes + d.link.down.TotalBytes
	}
	return n
}
