package dmxsys

import (
	"fmt"

	"dmx/internal/pcie"
	"dmx/internal/sim"
)

// Capacity is the analytic steady-state throughput bound of one app on
// one replica of the plan: the largest per-request exclusive occupancy
// any shared resource (service station, fabric link, or host channel)
// would accumulate, and its inverse, the request rate at which that
// resource saturates. It mirrors, charge for charge, the occupancy the
// request machine records at run time, so a measured fault-free
// bottleneck (AppReport.Bottleneck) matches it exactly — and the
// cluster router uses it as the placement-aware routing score.
type Capacity struct {
	// PerRequest is the bottleneck resource's occupancy per request.
	PerRequest sim.Duration
	// Resource names the bottleneck (plain, unprefixed name).
	Resource string
	// PerSecond is the bound: 1 / PerRequest (0 when PerRequest is 0).
	PerSecond float64
}

// Capacity reports app i's analytic throughput bound.
func (p *Plan) Capacity(i int) Capacity { return p.apps[i].cap }

// appCapacity statically accumulates the per-request occupancy charges
// of one request walking app i's pipeline — the same charges a
// one-member carrier's occupy calls record in flow.go — and picks the
// maximum with the same
// lexicographic tie-break as appInstance.bottleneck.
func (p *Plan) appCapacity(i int, pa *planApp) Capacity {
	cfg := p.cfg
	pipe := p.pipes[i]
	occ := make(map[string]sim.Duration)
	charge := func(name string, d sim.Duration) { occ[name] += d }
	chargeBytes := func(name string, n int64, bw float64) { occ[name] += sim.BytesAt(n, bw) }

	accelBW := pcie.LinkConfig{Gen: cfg.Gen, Lanes: cfg.AccelLanes}.Bandwidth()
	upBW := pcie.LinkConfig{Gen: cfg.Gen, Lanes: cfg.UplinkLanes}.Bandwidth()
	m := cfg.CPU
	opsPerSec := float64(m.Cores) * m.FreqHz * float64(m.SIMDLanes) * m.IssueEff
	cpuJob := func(ops, bytes int64) {
		chargeBytes("cpu.compute", ops, opsPerSec)
		chargeBytes("cpu.mem", bytes, m.MemBWBytes)
	}

	dev := func(k int) string { return fmt.Sprintf("a%d.%d", i, k) }
	// Route charges mirror pcie.Fabric's paths. All of an app's devices
	// and its standalone card share one switch, so device-to-device DMA
	// is always the two-link peer-to-peer route.
	rootToDev := func(d string, n int64) {
		chargeBytes(pa.sw+".down", n, upBW)
		chargeBytes(d+".down", n, accelBW)
	}
	devToRoot := func(d string, n int64) {
		chargeBytes(d+".up", n, accelBW)
		chargeBytes(pa.sw+".up", n, upBW)
	}
	p2p := func(src, dst string, n int64) {
		chargeBytes(src+".up", n, accelBW)
		chargeBytes(dst+".down", n, accelBW)
	}

	if cfg.Placement == AllCPU {
		for _, st := range pipe.Stages {
			work := int64(st.Accel.CPULatency(st.InBytes).Seconds() * opsPerSec)
			if work < 1 {
				work = 1
			}
			cpuJob(work, st.InBytes)
		}
		for _, h := range pipe.Hops {
			cpuJob(restructureWorkFor(m, h.Kernel))
		}
		return pickBottleneck(occ)
	}

	rootToDev(dev(0), pipe.InputBytes)
	for k, st := range pipe.Stages {
		charge(dev(k)+":"+st.Accel.Name, st.Accel.Latency(st.InBytes))
		if k >= len(pipe.Hops) {
			continue
		}
		h := pipe.Hops[k]
		hop := sim.Duration(0)
		if cfg.Placement.UsesDRX() {
			hop = pa.hopDRX[k]
		}
		if pa.fusion != nil {
			// Fusion changes what the DRX unit is charged: the leader hop
			// occupies it for the whole fused program plus the residency
			// gap while the intermediate stage runs (the unit is held, not
			// free), and the follower hop charges nothing. The gap here is
			// an uncontended estimate — transfer legs at line rate plus the
			// intermediate accelerator's service — so fused capacity is a
			// seeding bound, not the exact measured-occupancy identity the
			// unfused placements keep.
			switch pa.fusion[k].role {
			case fuseLeader:
				next := pipe.Stages[k+1]
				bw := upBW
				if cfg.Placement != Integrated {
					bw = accelBW
				}
				gap := DMASetupLatency + sim.BytesAt(h.OutBytes, bw) +
					next.Accel.Latency(next.InBytes) + sim.BytesAt(pipe.Hops[k+1].InBytes, bw)
				hop = pa.fusion[k].part + gap + pa.fusion[k+1].part
			case fuseFollower:
				hop = 0
			}
		}
		switch cfg.Placement {
		case MultiAxl:
			devToRoot(dev(k), h.InBytes)
			cpuJob(restructureWorkFor(m, h.Kernel))
			rootToDev(dev(k+1), h.OutBytes)
		case Integrated:
			devToRoot(dev(k), h.InBytes)
			charge("drx.integrated", hop)
			rootToDev(dev(k+1), h.OutBytes)
		case Standalone:
			p2p(dev(k), pa.cardDev, h.InBytes)
			charge(pa.cardDev, hop)
			p2p(pa.cardDev, dev(k+1), h.OutBytes)
		case PCIeIntegrated:
			chargeBytes(dev(k)+".up", h.InBytes, accelBW)
			charge("drx."+pa.sw, hop/sim.Duration(cfg.PCIeIntegratedSlots))
			chargeBytes(dev(k+1)+".down", h.OutBytes, accelBW)
		case BumpInTheWire:
			charge("drx."+dev(k), hop)
			p2p(dev(k), dev(k+1), h.OutBytes)
		}
	}
	devToRoot(dev(len(pipe.Stages)-1), pipe.OutputBytes)
	return pickBottleneck(occ)
}

// pickBottleneck selects the largest charge with appInstance.bottleneck's
// deterministic lexicographic tie-break.
func pickBottleneck(occ map[string]sim.Duration) Capacity {
	var c Capacity
	for res, d := range occ {
		if d > c.PerRequest || (d == c.PerRequest && (c.Resource == "" || res < c.Resource)) {
			c.PerRequest, c.Resource = d, res
		}
	}
	if c.PerRequest > 0 {
		c.PerSecond = 1 / c.PerRequest.Seconds()
	}
	return c
}
