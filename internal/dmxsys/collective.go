package dmxsys

import (
	"fmt"

	"dmx/internal/pcie"
	"dmx/internal/restructure"
	"dmx/internal/sim"
)

// Collective latency experiments (Fig. 17): broadcast (one-to-many) and
// all-reduce (many-to-one reduction + all-gather) across N accelerators,
// compared between the Multi-Axl baseline (CPU-mediated) and DMX with
// bump-in-the-wire DRXs (Sec. V, "One-to-many and many-to-one data
// movement").

// CollectiveConfig parameterizes one collective run.
type CollectiveConfig struct {
	// Accels is the endpoint count (4–32 in Fig. 17).
	Accels int
	// Bytes is the per-endpoint payload (float32 vectors).
	Bytes int64
	// Reduce selects all-reduce semantics: whoever gathers partials also
	// sums them (a SumReduce restructuring kernel sized to the fan-in).
	Reduce bool
	// UseDMX selects bump-in-the-wire DRX (true) or the CPU baseline.
	UseDMX bool
	// System build parameters.
	Sys Config
}

// CollectiveSystem builds a fabric with n accelerators (bump-in-the-wire
// DRXs when DMX) for collective experiments.
type CollectiveSystem struct {
	sys  *System
	cfg  CollectiveConfig
	devs []string
}

// NewCollective assembles the system.
func NewCollective(cfg CollectiveConfig) (*CollectiveSystem, error) {
	if cfg.Accels < 2 {
		return nil, fmt.Errorf("dmxsys: collective needs ≥2 accelerators, got %d", cfg.Accels)
	}
	if cfg.Bytes <= 0 {
		return nil, fmt.Errorf("dmxsys: collective payload %d", cfg.Bytes)
	}
	if err := cfg.Sys.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	s := &System{
		Eng:    eng,
		Fabric: pcie.New(eng),
		cfg:    cfg.Sys,
	}
	m := hostCPU
	opsPerSec := float64(m.Cores) * m.FreqHz * float64(m.SIMDLanes) * m.IssueEff
	s.cpuCompute = sim.NewChannel(eng, "cpu.compute", opsPerSec)
	s.cpuMem = sim.NewChannel(eng, "cpu.mem", m.MemBWBytes)

	accelLink := pcie.LinkConfig{Gen: cfg.Sys.Gen, Lanes: AccelLanes}
	uplink := pcie.LinkConfig{Gen: cfg.Sys.Gen, Lanes: cfg.Sys.UplinkLanes}
	cs := &CollectiveSystem{sys: s, cfg: cfg}
	slotsLeft := 0
	curSwitch := ""
	for i := 0; i < cfg.Accels; i++ {
		if slotsLeft == 0 {
			curSwitch = fmt.Sprintf("sw%d", s.nSwitches)
			if err := s.Fabric.AddSwitch(curSwitch, uplink); err != nil {
				return nil, err
			}
			s.nSwitches++
			slotsLeft = SlotsPerSwitch
		}
		dev := fmt.Sprintf("a%d", i)
		if err := s.Fabric.AddDevice(dev, curSwitch, accelLink); err != nil {
			return nil, err
		}
		slotsLeft--
		cs.devs = append(cs.devs, dev)
		if cfg.UseDMX {
			s.nDRX++
		}
	}
	return cs, nil
}

// reduceDelay models summing fanIn partial vectors at the gathering
// site: a SumReduce restructuring kernel on the DRX, or the equivalent
// software reduction on the host channels. A no-op unless Reduce is set
// and fanIn ≥ 2.
func (cs *CollectiveSystem) reduceDelay(onDRX bool, fanIn int, done func()) {
	s := cs.sys
	if !cs.cfg.Reduce || fanIn < 2 {
		s.Eng.Schedule(0, done)
		return
	}
	k := restructure.SumReduce(fanIn, int(cs.cfg.Bytes/4))
	if onDRX {
		d, err := drxTimeOf(s.cfg.DRX, k)
		if err != nil {
			s.fail(fmt.Errorf("dmxsys: collective DRX timing: %w", err))
			return
		}
		s.Eng.Schedule(d, done)
		return
	}
	ops, bytes := s.restructureWork(k)
	s.cpuJob(ops, bytes, done)
}

// switchGroups partitions the accelerators by switch, preserving order;
// the first device of each group acts as the relay for hierarchical
// (tree) collectives — the DRX-to-DRX forwarding Sec. V's multicast
// support enables.
func (cs *CollectiveSystem) switchGroups() [][]string {
	var groups [][]string
	index := make(map[string]int)
	for _, dev := range cs.devs {
		sw, _ := cs.sys.Fabric.SwitchOf(dev)
		gi, ok := index[sw]
		if !ok {
			gi = len(groups)
			index[sw] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], dev)
	}
	return groups
}

// fanout sends the payload from src to each destination with
// back-to-back DMA setups; each completion invokes done once.
func (cs *CollectiveSystem) fanout(src string, dsts []string, done func()) {
	s := cs.sys
	for i, dst := range dsts {
		s.Eng.Schedule(DMASetupLatency*sim.Duration(i+1), func() {
			s.transferOrFail(src, dst, cs.cfg.Bytes, done)
		})
	}
}

// multicast sends the payload from accelerator 0 down the relay tree
// over bump-in-the-wire DRXs: a direct fanout under the source's own
// switch, and one copy to the relay of every other switch, which then
// re-broadcasts under its own switch — cross-switch uplinks carry one
// payload per switch instead of one per destination. done runs once per
// accelerator other than the source.
func (cs *CollectiveSystem) multicast(groups [][]string, done func()) {
	s := cs.sys
	src := cs.devs[0]
	for _, group := range groups {
		if group[0] == src {
			cs.fanout(src, group[1:], done)
			continue
		}
		relay := group[0]
		s.Eng.Schedule(DMASetupLatency, func() {
			s.transferOrFail(src, relay, cs.cfg.Bytes, func() {
				done()
				cs.fanout(relay, group[1:], done)
			})
		})
	}
}

// hostScatter is the baseline's delivery from host memory (Sec. VII-C):
// for each accelerator from first on, sequentially, the driver memcpys
// the payload into a DMA buffer, initiates the transfer and takes its
// completion. done runs once per accelerator.
func (cs *CollectiveSystem) hostScatter(first int, done func()) {
	s := cs.sys
	var next func(i int)
	next = func(i int) {
		if i >= len(cs.devs) {
			return
		}
		s.cpuJob(1, 2*cs.cfg.Bytes, func() { // driver buffer copy
			s.Eng.Schedule(DMASetupLatency, func() {
				s.transferOrFail(pcie.Root, cs.devs[i], cs.cfg.Bytes, func() {
					s.Eng.Schedule(s.driverDelay(), func() {
						done()
						next(i + 1)
					})
				})
			})
		})
	}
	next(first)
}

// transferOrFail starts a fabric DMA, recording a flow error on an
// invalid route (surfaced by Broadcast/AllReduce after the drain).
func (s *System) transferOrFail(from, to string, n int64, done func()) {
	if err := s.Fabric.Transfer(from, to, n, done); err != nil {
		s.fail(fmt.Errorf("dmxsys: transfer %s→%s: %w", from, to, err))
	}
}

// run starts a collective whose result must land on want accelerators,
// after the initial driver round trip and DMA setup, drains the engine,
// and returns the instant the last delivery landed. start gets the
// callback each delivery invokes once.
func (cs *CollectiveSystem) run(op string, want int, start func(done func())) (sim.Duration, error) {
	s := cs.sys
	left := want
	var finished sim.Time
	done := func() {
		left--
		if left == 0 {
			finished = s.Eng.Now()
		}
	}
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() { start(done) })
	s.Eng.Run()
	if s.err != nil {
		return 0, s.err
	}
	if left != 0 {
		return 0, fmt.Errorf("dmxsys: %s never completed (%d deliveries pending)", op, left)
	}
	return sim.Duration(finished), nil
}

// Broadcast runs a one-to-many transfer from accelerator 0 to all others
// and returns the completion latency. DMX multicasts down the relay
// tree; the baseline DMAs the source's payload to host memory,
// restructures it there and scatters it from the host.
func (cs *CollectiveSystem) Broadcast() (sim.Duration, error) {
	return cs.run("broadcast", len(cs.devs)-1, func(done func()) {
		if cs.cfg.UseDMX {
			cs.multicast(cs.switchGroups(), done)
			return
		}
		cs.sys.transferOrFail(cs.devs[0], pcie.Root, cs.cfg.Bytes, func() {
			cs.hostScatter(1, done)
		})
	})
}

// AllReduce runs scatter-reduce + all-gather across the accelerators and
// returns the completion latency.
func (cs *CollectiveSystem) AllReduce() (sim.Duration, error) {
	s := cs.sys
	n := len(cs.devs)
	if !cs.cfg.UseDMX {
		// Baseline: every accelerator DMAs to the host, the CPU sums and
		// restructures, then the driver scatters the result to all.
		return cs.run("all-reduce", n, func(done func()) {
			arrived := 0
			for _, src := range cs.devs {
				s.transferOrFail(src, pcie.Root, cs.cfg.Bytes, func() {
					arrived++
					if arrived == n {
						cs.reduceDelay(false, n, func() { cs.hostScatter(0, done) })
					}
				})
			}
		})
	}
	// Hierarchical reduction: each switch's members send partials to the
	// local relay DRX, which reduces; relays forward their partials to
	// the root relay (accelerator 0) for the final reduction; the result
	// multicasts back through the same tree.
	return cs.run("all-reduce", n-1, func(done func()) {
		groups := cs.switchGroups()
		root := cs.devs[0]
		arrivedAtRoot := 0
		atRoot := func() {
			arrivedAtRoot++
			if arrivedAtRoot == len(groups) {
				cs.reduceDelay(true, len(groups), func() { cs.multicast(groups, done) })
			}
		}
		for _, group := range groups {
			relay := group[0]
			localArrived := 0
			localDone := func() {
				localArrived++
				if localArrived < len(group)-1 {
					return
				}
				cs.reduceDelay(true, len(group), func() {
					if relay == root {
						atRoot()
						return
					}
					s.Eng.Schedule(DMASetupLatency, func() {
						s.transferOrFail(relay, root, cs.cfg.Bytes, atRoot)
					})
				})
			}
			if len(group) == 1 {
				// A lone member's "local reduction" is itself.
				localDone()
				continue
			}
			for _, dev := range group[1:] {
				s.Eng.Schedule(DMASetupLatency, func() {
					s.transferOrFail(dev, relay, cs.cfg.Bytes, localDone)
				})
			}
		}
	})
}
