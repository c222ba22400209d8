package dmxsys

import (
	"fmt"

	"dmx/internal/cpu"
	"dmx/internal/drx"
	"dmx/internal/energy"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/pcie"
	"dmx/internal/sim"
)

// Placement selects the system configuration.
type Placement int

// System configurations.
const (
	// AllCPU runs application kernels and restructuring on the host.
	AllCPU Placement = iota
	// MultiAxl accelerates kernels but restructures on the host CPU.
	MultiAxl
	// Integrated attaches one shared DRX to the CPU.
	Integrated
	// Standalone gives each application a DRX PCIe card.
	Standalone
	// PCIeIntegrated embeds a DRX into each PCIe switch.
	PCIeIntegrated
	// BumpInTheWire pairs every accelerator with its own inline DRX.
	BumpInTheWire
)

var placementNames = [...]string{
	AllCPU:         "All-CPU",
	MultiAxl:       "Multi-Axl",
	Integrated:     "Integrated",
	Standalone:     "Standalone",
	PCIeIntegrated: "PCIe-Integrated",
	BumpInTheWire:  "Bump-in-the-Wire",
}

func (p Placement) String() string {
	if int(p) < len(placementNames) {
		return placementNames[p]
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// UsesDRX reports whether the placement restructures on DRX hardware.
func (p Placement) UsesDRX() bool { return p >= Integrated }

// Driver timing constants (Sec. V: GEM/ioctl command execution,
// interrupt-mode completion signaling with coalescing, NAPI-style
// fallback to polling under bursty arrivals).
const (
	// InterruptLatency is the cost of one interrupt delivery plus driver
	// handler execution on the host.
	InterruptLatency = 5 * sim.Microsecond
	// PollLatency replaces InterruptLatency once the arrival rate
	// crosses the coalescing threshold.
	PollLatency = 1 * sim.Microsecond
	// DMASetupLatency is the driver's cost to program one point-to-point
	// DMA descriptor (dma-buf handshake included).
	DMASetupLatency = 2 * sim.Microsecond
	// CoalesceThreshold is the number of completions within
	// CoalesceWindow above which drivers switch from interrupts to
	// polling.
	CoalesceThreshold = 8
	// CoalesceWindow is the sliding window over which the completion
	// rate is assessed.
	CoalesceWindow = 200 * sim.Microsecond
)

// Testbed constants the paper's evaluation never varies.
const (
	// AccelLanes is the downstream link width per accelerator (x16).
	AccelLanes = 16
	// SlotsPerSwitch is how many devices a PCIe switch takes before a
	// new one is added.
	SlotsPerSwitch = 8
	// PCIeIntegratedSlots is the line-rate processing parallelism of a
	// switch-integrated DRX.
	PCIeIntegratedSlots = 4
	// AppsPerStandaloneCard is how many applications share one standalone
	// DRX PCIe card. Sharing is what makes the standalone placement
	// oversubscribe its card link and unit (Sec. III: "the PCIe link to a
	// shared, Standalone DRX card can become the bottleneck") while
	// spending less idle DRX power than bump-in-the-wire (Fig. 15).
	AppsPerStandaloneCard = 2
	// StartStagger offsets each application's first request by
	// i·StartStagger. Real co-running services are not phase-locked; a
	// deterministic stagger avoids the measurement artifact where every
	// app hits every shared resource at the same instant.
	StartStagger = 50 * sim.Microsecond
)

// The calibrated Xeon host and the power model every system shares.
var (
	hostCPU      = cpu.DefaultModel()
	energyParams = energy.Default()
)

// SchedPolicy selects the service discipline every contended station
// (accelerator engines, DRX units) uses to order waiting jobs.
type SchedPolicy uint8

// Service disciplines.
const (
	// SchedFIFO serves jobs strictly in arrival order (the default; the
	// historical behavior, preserved bit-for-bit).
	SchedFIFO SchedPolicy = iota
	// SchedPriority serves the waiting app with the smallest
	// Config.AppPriority value first.
	SchedPriority
	// SchedWFQ is round-robin across apps: each waiting app in turn
	// gets one job into service.
	SchedWFQ
	// SchedEDF is earliest-deadline-first: every contended station
	// serves the waiting job whose request has the nearest absolute
	// deadline (requests without a deadline sort last). Deadlines come
	// from the load spec (traffic.Spec.Deadline / AppDeadlines).
	SchedEDF
	// SchedSRS is shortest-remaining-service: stations serve the waiting
	// job whose request has the least precomputed service demand still
	// ahead of it in its pipeline (the per-stage occupancy model that
	// also drives AppReport.Bottleneck). Short requests overtake long
	// ones, which minimizes mean sojourn time under mixed request sizes.
	SchedSRS
)

var schedNames = [...]string{
	SchedFIFO:     "fifo",
	SchedPriority: "priority",
	SchedWFQ:      "wfq",
	SchedEDF:      "edf",
	SchedSRS:      "srs",
}

func (p SchedPolicy) String() string {
	if int(p) < len(schedNames) {
		return schedNames[p]
	}
	return fmt.Sprintf("SchedPolicy(%d)", int(p))
}

// ParseSched maps a CLI token to a scheduling policy.
func ParseSched(s string) (SchedPolicy, error) {
	for i, name := range schedNames {
		if s == name {
			return SchedPolicy(i), nil
		}
	}
	return 0, fmt.Errorf("dmxsys: unknown discipline %q (want fifo, priority, wfq, edf, or srs)", s)
}

// Config parameterizes a system build.
type Config struct {
	Placement Placement
	// Gen and the uplink width set the fabric (Fig. 19 sweeps both).
	Gen         pcie.Gen
	UplinkLanes int // switch upstream width (x8: the paper's bottleneck)
	// DRX is the hardware configuration of every DRX instance.
	DRX drx.Config
	// Obs, when set, receives the structured event stream: typed Fig. 10
	// protocol instants, per-device occupancy spans, DMA spans with flow
	// arrows, per-app phase attribution spans, and link occupancy
	// counters. Feed the recorded stream to obs.WriteTrace for a
	// Perfetto-loadable trace or obs.Aggregate for metrics (RunReport
	// carries the aggregate automatically); for the Fig. 10 text log,
	// render each event through obs.RenderText from the recorder's
	// OnEvent hook. Tracing never perturbs timing: emission only
	// appends, and a nil recorder costs one branch.
	Obs *obs.Recorder
	// Sched is the service discipline of every contended station. The
	// zero value (SchedFIFO) preserves the classic arrival-order
	// behavior exactly.
	Sched SchedPolicy
	// AppPriority maps app index → priority under SchedPriority (lower
	// is served first; apps beyond the slice rank after every listed
	// one).
	AppPriority []int
	// Faults, when set and enabled, injects seeded deterministic
	// failures: DRX unit outages, transient restructure errors, PCIe
	// link degradation/loss, and accelerator stalls. nil (or a disabled
	// plan) preserves the fault-free flow bit-for-bit.
	Faults *faults.Plan
	// Retry is the recovery policy: per-stage watchdog deadline,
	// bounded re-attempts with deterministic exponential backoff, and
	// graceful degradation to CPU-mediated restructuring when a hop's
	// DRX path is unavailable. The zero value disables retry and the
	// watchdog.
	Retry faults.RetryPolicy
	// BatchWindow enables continuous batching: requests of one
	// application that arrive within BatchWindow of the first pending
	// request coalesce into a single batch that walks the pipeline as
	// one unit (one driver round trip, one DMA descriptor, and one
	// kernel/DRX dispatch per station, with payloads scaled by the batch
	// size). Completions split back out per request, so latency
	// accounting stays per-request: early members pay the residual
	// window as queueing delay. Zero (the default) disables batching
	// and preserves the unbatched serving path bit-for-bit.
	BatchWindow sim.Duration
	// BatchMax caps how many requests one batch may carry; reaching the
	// cap flushes the window early. Zero means no cap (the window alone
	// closes batches). Bump-in-the-wire placements additionally cap
	// batches so a batch's hop payload never exceeds an inline DRX data
	// queue.
	BatchMax int
	// AdmitLimit enables per-app admission control under RunLoad: an
	// arrival that finds AdmitLimit of its app's requests already
	// outstanding (queued, batching, or executing) is rejected
	// immediately instead of deepening the backlog, and counts in
	// LoadReport as Rejected. Zero disables admission control.
	AdmitLimit int
	// FuseHops selects adjacent DRX hop pairs to fuse: for each entry,
	// hop Hop and hop Hop+1 of app App's pipeline compile into one DRX
	// program that pays one driver/launch round trip. The fused program
	// runs its first half at the leading hop, stays resident on the DRX
	// unit while the intermediate accelerator stage executes, and resumes
	// its second half when the trailing hop arrives — so the trailing hop
	// skips driver and DMA-descriptor setup entirely, at the cost of the
	// unit being held (unavailable to other work) across the gap. Legal
	// only under placements where adjacent hops share one DRX unit
	// (Integrated, Standalone, PCIe-Integrated) and only when the two
	// kernels chain (restructure.Fuse accepts them). Mutually exclusive
	// with BatchWindow: batches re-plan hop payloads per batch, which a
	// resident half-executed program cannot express. Empty preserves the
	// unfused flow bit-for-bit.
	FuseHops []FusePair
}

// FusePair names one fused hop pair: hops Hop and Hop+1 of the pipeline
// at index App fuse into a single DRX program.
type FusePair struct {
	App int `json:"app"`
	Hop int `json:"hop"`
}

// DefaultConfig mirrors the paper's testbed: PCIe Gen3, x8 uplinks and
// the default DRX ASIC. The x16 device links, 8 devices per switch and
// the calibrated Xeon host are the same for every config.
func DefaultConfig(p Placement) Config {
	return Config{
		Placement:   p,
		Gen:         pcie.Gen3,
		UplinkLanes: 8,
		DRX:         drx.DefaultConfig(),
	}
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if int(c.Placement) >= len(placementNames) || c.Placement < 0 {
		return fmt.Errorf("dmxsys: unknown placement %d", int(c.Placement))
	}
	switch c.Gen {
	case pcie.Gen3, pcie.Gen4, pcie.Gen5:
	default:
		return fmt.Errorf("dmxsys: unsupported PCIe generation %v", c.Gen)
	}
	if c.UplinkLanes <= 0 {
		return fmt.Errorf("dmxsys: non-positive uplink width")
	}
	if err := c.DRX.Validate(); err != nil {
		return err
	}
	switch c.Sched {
	case SchedFIFO, SchedPriority, SchedWFQ, SchedEDF, SchedSRS:
	default:
		return fmt.Errorf("dmxsys: unknown scheduling policy %d", int(c.Sched))
	}
	if c.BatchWindow < 0 {
		return fmt.Errorf("dmxsys: negative batch window %v", c.BatchWindow)
	}
	if c.BatchMax < 0 {
		return fmt.Errorf("dmxsys: negative batch cap %d", c.BatchMax)
	}
	if c.AdmitLimit < 0 {
		return fmt.Errorf("dmxsys: negative admission limit %d", c.AdmitLimit)
	}
	if len(c.FuseHops) > 0 {
		if c.BatchWindow > 0 {
			return fmt.Errorf("dmxsys: hop fusion and batching are mutually exclusive")
		}
		switch c.Placement {
		case Integrated, Standalone, PCIeIntegrated:
		default:
			return fmt.Errorf("dmxsys: hop fusion needs a shared DRX unit (placement %v has none)", c.Placement)
		}
		seen := make(map[FusePair]bool, len(c.FuseHops))
		for _, fp := range c.FuseHops {
			if fp.App < 0 || fp.Hop < 0 {
				return fmt.Errorf("dmxsys: negative fuse pair app=%d hop=%d", fp.App, fp.Hop)
			}
			if seen[fp] {
				return fmt.Errorf("dmxsys: duplicate fuse pair app=%d hop=%d", fp.App, fp.Hop)
			}
			seen[fp] = true
			if seen[FusePair{App: fp.App, Hop: fp.Hop - 1}] || seen[FusePair{App: fp.App, Hop: fp.Hop + 1}] {
				return fmt.Errorf("dmxsys: overlapping fuse pairs at app=%d hop=%d", fp.App, fp.Hop)
			}
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	return nil
}

// discipline builds a fresh Discipline instance for one station (each
// server orders its own backlog independently); nil asks the station
// for its inline FIFO.
func (c Config) discipline() sim.Discipline {
	switch c.Sched {
	case SchedPriority, SchedEDF, SchedSRS:
		return new(sim.Keyed)
	case SchedWFQ:
		return sim.NewWRR()
	}
	return nil
}
