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
	m := cfg.Sys.CPU
	opsPerSec := float64(m.Cores) * m.FreqHz * float64(m.SIMDLanes) * m.IssueEff
	s.cpuCompute = sim.NewChannel(eng, "cpu.compute", opsPerSec)
	s.cpuMem = sim.NewChannel(eng, "cpu.mem", m.MemBWBytes)

	accelLink := pcie.LinkConfig{Gen: cfg.Sys.Gen, Lanes: cfg.Sys.AccelLanes}
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
			slotsLeft = cfg.Sys.SlotsPerSwitch
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
		d, err := s.drxServiceTime(k)
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
		dst := dst
		s.Eng.Schedule(DMASetupLatency*sim.Duration(i+1), func() {
			s.transferOrFail(src, dst, cs.cfg.Bytes, done)
		})
	}
}

// transferOrFail starts a fabric DMA, recording a flow error on an
// invalid route (surfaced by Broadcast/AllReduce after the drain).
func (s *System) transferOrFail(from, to string, n int64, done func()) {
	if err := s.Fabric.Transfer(from, to, n, done); err != nil {
		s.fail(fmt.Errorf("dmxsys: transfer %s→%s: %w", from, to, err))
	}
}

// Broadcast runs a one-to-many transfer from accelerator 0 to all others
// and returns the completion latency.
func (cs *CollectiveSystem) Broadcast() (sim.Duration, error) {
	s := cs.sys
	n := len(cs.devs)
	remaining := n - 1
	var finished sim.Time
	complete := func() {
		remaining--
		if remaining == 0 {
			finished = s.Eng.Now()
		}
	}
	if cs.cfg.UseDMX {
		// Hierarchical multicast over bump-in-the-wire DRXs: the source
		// restructures once, forwards one copy to a relay DRX on every
		// remote switch, and each relay re-broadcasts under its own
		// switch — cross-switch uplinks carry one payload per switch
		// instead of one per destination.
		groups := cs.switchGroups()
		s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
			func(after func()) { after() }(func() {
				for _, group := range groups {
					group := group
					if group[0] == cs.devs[0] {
						// Source's own switch: direct local fanout.
						cs.fanout(cs.devs[0], group[1:], complete)
						continue
					}
					// Remote switch: relay receives, then re-broadcasts.
					relay := group[0]
					s.Eng.Schedule(DMASetupLatency, func() {
						s.transferOrFail(cs.devs[0], relay, cs.cfg.Bytes, func() {
							complete()
							cs.fanout(relay, group[1:], complete)
						})
					})
				}
			})
		})
	} else {
		// Baseline (Sec. VII-C): source → CPU memory, restructure on the
		// host, then for each destination the driver memcpys the payload
		// into a DMA buffer and initiates the transfer, sequentially.
		s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
			s.transferOrFail(cs.devs[0], pcie.Root, cs.cfg.Bytes, func() {
				func(after func()) { after() }(func() {
					var next func(i int)
					next = func(i int) {
						if i >= n {
							return
						}
						s.cpuJob(1, 2*cs.cfg.Bytes, func() { // driver buffer copy
							s.Eng.Schedule(DMASetupLatency, func() {
								s.transferOrFail(pcie.Root, cs.devs[i], cs.cfg.Bytes, func() {
									s.Eng.Schedule(s.driverDelay(), func() {
										complete()
										next(i + 1)
									})
								})
							})
						})
					}
					next(1)
				})
			})
		})
	}
	s.Eng.Run()
	if s.err != nil {
		return 0, s.err
	}
	if remaining != 0 {
		return 0, fmt.Errorf("dmxsys: broadcast never completed (%d transfers pending)", remaining)
	}
	return sim.Duration(finished), nil
}

// AllReduce runs scatter-reduce + all-gather across the accelerators and
// returns the completion latency.
func (cs *CollectiveSystem) AllReduce() (sim.Duration, error) {
	s := cs.sys
	n := len(cs.devs)
	var finished sim.Time
	if cs.cfg.UseDMX {
		// Hierarchical reduction: each switch's members send partials to
		// the local relay DRX, which reduces; relays forward their
		// partials to the root relay for the final reduction; the result
		// multicasts back through the same tree.
		groups := cs.switchGroups()
		rootRelay := cs.devs[0]
		arrivedAtRoot := 0
		gathered := 0
		complete := func() {
			gathered++
			if gathered == n-1 {
				finished = s.Eng.Now()
			}
		}
		broadcastResult := func() {
			for _, group := range groups {
				group := group
				if group[0] == rootRelay {
					cs.fanout(rootRelay, group[1:], complete)
					continue
				}
				relay := group[0]
				s.Eng.Schedule(DMASetupLatency, func() {
					s.transferOrFail(rootRelay, relay, cs.cfg.Bytes, func() {
						complete()
						cs.fanout(relay, group[1:], complete)
					})
				})
			}
		}
		rootReduce := func() {
			cs.reduceDelay(true, len(groups), broadcastResult)
		}
		s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
			for _, group := range groups {
				group := group
				relay := group[0]
				localArrived := 0
				localDone := func() {
					localArrived++
					if localArrived < len(group)-1 {
						return
					}
					// Local partials reduced at the relay DRX.
					cs.reduceDelay(true, len(group), func() {
						if relay == rootRelay {
							arrivedAtRoot++
							if arrivedAtRoot == len(groups) {
								rootReduce()
							}
							return
						}
						s.Eng.Schedule(DMASetupLatency, func() {
							s.transferOrFail(relay, rootRelay, cs.cfg.Bytes, func() {
								arrivedAtRoot++
								if arrivedAtRoot == len(groups) {
									rootReduce()
								}
							})
						})
					})
				}
				if len(group) == 1 {
					// Lone member: its "local reduction" is itself.
					localArrived = -1
					localDone()
					continue
				}
				for _, dev := range group[1:] {
					dev := dev
					s.Eng.Schedule(DMASetupLatency, func() {
						s.transferOrFail(dev, relay, cs.cfg.Bytes, localDone)
					})
				}
			}
		})
		s.Eng.Run()
		if s.err != nil {
			return 0, s.err
		}
		if finished == 0 {
			return 0, fmt.Errorf("dmxsys: all-reduce never completed")
		}
		return sim.Duration(finished), nil
	}
	// Baseline: every accelerator DMAs to the host, the CPU sums and
	// restructures, then the driver memcpys and scatters sequentially.
	arrived := 0
	gathered := 0
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		for i := 0; i < n; i++ {
			src := cs.devs[i]
			s.transferOrFail(src, pcie.Root, cs.cfg.Bytes, func() {
				arrived++
				if arrived == n {
					cs.reduceDelay(false, n, func() {
						var next func(j int)
						next = func(j int) {
							if j >= n {
								return
							}
							s.cpuJob(1, 2*cs.cfg.Bytes, func() {
								s.Eng.Schedule(DMASetupLatency, func() {
									s.transferOrFail(pcie.Root, cs.devs[j], cs.cfg.Bytes, func() {
										s.Eng.Schedule(s.driverDelay(), func() {
											gathered++
											if gathered == n {
												finished = s.Eng.Now()
											}
											next(j + 1)
										})
									})
								})
							})
						}
						next(0)
					})
				}
			})
		}
	})
	s.Eng.Run()
	if s.err != nil {
		return 0, s.err
	}
	if finished == 0 {
		return 0, fmt.Errorf("dmxsys: all-reduce never completed")
	}
	return sim.Duration(finished), nil
}
