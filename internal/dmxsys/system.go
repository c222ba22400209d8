package dmxsys

import (
	"fmt"
	"strconv"

	"dmx/internal/drx"
	"dmx/internal/drxc"
	"dmx/internal/energy"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/pcie"
	"dmx/internal/restructure"
	"dmx/internal/sim"
)

// System is one assembled server: fabric, host resources, per-device
// service stations, and the application instances placed on it.
type System struct {
	Eng    *sim.Engine
	Fabric *pcie.Fabric
	cfg    Config

	// Host execution resources. The two channels model a malleable
	// parallel machine: a job posts its arithmetic work on cpuCompute
	// (ops at the socket's effective vector rate) and its traffic on
	// cpuMem (bytes at the socket bandwidth); fair sharing across jobs
	// gives each concurrent restructuring its 1/n of both, matching the
	// contention behavior of Fig. 3.
	cpuCompute *sim.Channel
	cpuMem     *sim.Channel

	apps      []*appInstance
	nSwitches int
	nDRX      int
	// localBytes counts bump-in-the-wire DRX↔accel movement that stays
	// off the fabric but still costs transfer energy.
	localBytes int64
	// irqTimes is the sliding window of recent completion events driving
	// the interrupt/polling decision.
	irqTimes []sim.Time

	// drxServers lists the DRX service stations for energy metering
	// (identifying them by name breaks under host prefixes).
	drxServers []*sim.Server

	// rec is the structured event sink (nil = tracing disabled): the
	// host's HostOpts.Obs, else cfg.Obs.
	rec *obs.Recorder

	// carrierPool recycles retired carrier shells (members slice and
	// bound step callback included), and requestPool retired request
	// records, so a steady-state walk — solo or batched — allocates
	// nothing. carriers lists every shell ever made, live or pooled: the
	// drain diagnosis names the live ones. tickets pools the guard
	// tickets of hazardous runs.
	carrierPool []*carrier
	requestPool []*request
	carriers    []*carrier
	tickets     []*ticket

	// inj is the fault injector (nil = no faults). hazardous is true
	// when faults or a retry policy are active; every fault/retry check
	// in the request machine is gated on it so the fault-free flow
	// stays bit-for-bit identical to the historical behavior.
	inj       *faults.Injector
	hazardous bool

	// err is the first flow error (invalid fabric route, queue
	// accounting violation, DRX timing failure). The request machine
	// records it via fail instead of panicking; Run and RunLoad surface
	// it after the engine drains.
	err error
}

// fail records the first flow error.
func (s *System) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// appInstance is one running application. Everything a request reads
// per step — stations, DRX service times, fabric routes, data queues and
// occupancy slots — is resolved here once, at Instantiate, so the request
// machine does no name lookups.
type appInstance struct {
	id   int
	pipe *Pipeline
	// accelDev[k] is the fabric device of stage k and accelSrv[k] its
	// service station (both empty for AllCPU).
	accelDev []string
	accelSrv []*sim.Server
	// drxServer[k] serves hop k's restructuring (nil when on CPU); its
	// name is the hop's DRX trace track.
	drxServer []*sim.Server
	// hopDRX[k] is hop k's DRX service time (nil without DRX),
	// hopCPU[k] its host-CPU restructuring work and accelKey[k] stage
	// k's energy component (see pipeTables). Plan state, shared
	// read-only across replicas.
	hopDRX   []sim.Duration
	hopCPU   []cpuWork
	accelKey []string

	// input and output are the host↔accelerator legs of every request;
	// hops[k] holds hop k's legs and data queues (both empty for AllCPU).
	input, output leg
	hops          []hopRoute
	// accelSlot[k] / drxSlot[k] are the occupancy slots of stage k's
	// station and hop k's DRX unit.
	accelSlot []int
	drxSlot   []int

	// track is the app instance's trace timeline name.
	track string
	// requests counts admitted requests, giving each streamed request
	// its own trace track (spans of one track must nest).
	requests int

	// inflight counts requests admitted and not yet retired; admission
	// control (Config.AdmitLimit) rejects arrivals past the limit.
	inflight int

	// Continuous-batching state. pending holds the open accumulation
	// window's members (in arrival order); flushRef/flushArmed track the
	// pending window-expiry event and flushFn, bound only when batching
	// is on, is its preallocated closure so re-arming the window never
	// allocates. nbatches and batchedReqs feed the LoadReport batching
	// line; maxBatch caps the batch size so a bump-in-the-wire batch's
	// hop payload always fits the inline DRX data queues (0 = uncapped).
	pending     []*request
	flushRef    sim.EventRef
	flushArmed  bool
	flushFn     func()
	nbatches    int
	batchedReqs int
	maxBatch    int

	// remAtKernel[k] / remAtHop[k] are the precomputed station service
	// demands still ahead of a request when it submits stage k's kernel
	// / hop k's restructure — the SchedSRS scheduling keys (nil for
	// AllCPU, which has no contended stations).
	remAtKernel []sim.Duration
	remAtHop    []sim.Duration

	// fusion[k] is hop k's role in a fused pair (nil when Config.FuseHops
	// is empty — the unfused flow, bit-for-bit). Plan state, shared
	// read-only across replicas.
	fusion []hopFusion

	// occ[i] accumulates the exclusive occupancy the app's requests
	// charged shared resource occNames[i] (server, link, or host
	// channel). Divided by the request count it is the per-request
	// occupancy whose maximum bounds steady-state throughput
	// (AppReport.Bottleneck). Slots are assigned at Instantiate, in
	// tables the plan sized (planApp.slots); the two host channels
	// always hold slotCPUCompute and slotCPUMem.
	occ      []sim.Duration
	occNames []string

	rep AppReport
}

// Occupancy slots every app reserves for the shared host channels.
const (
	slotCPUCompute = iota
	slotCPUMem
)

// slot returns the occupancy slot of a named resource, assigning the
// next free one on first use. Build time only: the plan sized the
// tables, so assigning a slot never grows them.
func (a *appInstance) slot(name string) int {
	for i, n := range a.occNames {
		if n == name {
			return i
		}
	}
	a.occNames = append(a.occNames, name)
	a.occ = append(a.occ, 0)
	return len(a.occNames) - 1
}

// leg is one fabric transfer of a request's walk, resolved at
// Instantiate: the route handle, its trace endpoints, and the occupancy
// slot and bandwidth of each of the route's links (links[:nlinks]).
type leg struct {
	from, to string
	rt       *pcie.Route
	links    [pcie.MaxLinks]linkCharge
	nlinks   int
}

// linkCharge is one link of a leg in occupancy terms.
type linkCharge struct {
	slot int
	bw   float64
}

// hopRoute is hop k's resolved data motion.
type hopRoute struct {
	// toHost and fromHost are the accelerator k → host and host →
	// accelerator k+1 legs: the hop itself under MultiAxl and Integrated,
	// and every placement's CPU-fallback (degrade) path.
	toHost, fromHost leg
	// in and out are the DRX path's legs: to and from the standalone
	// card, up into and down out of the switch (PCIe-Integrated), or —
	// under bump-in-the-wire — only out, the P2P DMA to the peer (the
	// move into the inline DRX stays off the fabric).
	in, out leg
	// rx, tx are the bump-in-the-wire DRX's data queues toward the peer
	// accelerator (nil otherwise).
	rx, tx *DataQueue
}

// newLeg resolves a leg on route rt, charging its links into app a's
// occupancy slots.
func (a *appInstance) newLeg(rt *pcie.Route, from, to string) leg {
	l := leg{from: from, to: to, rt: rt, nlinks: rt.Len()}
	for i := range l.nlinks {
		li := rt.Link(i)
		l.links[i] = linkCharge{slot: a.slot(li.Name), bw: li.Bandwidth}
	}
	return l
}

// occupyLeg charges a payload's serialization time against every link
// of a resolved leg.
func (a *appInstance) occupyLeg(l *leg, n int64) {
	for _, c := range l.links[:l.nlinks] {
		a.occ[c.slot] += sim.BytesAt(n, c.bw)
	}
}

// occupyCPU charges a host job's drain time on the two shared CPU
// channels.
func (s *System) occupyCPU(a *appInstance, ops, bytes int64) {
	a.occ[slotCPUCompute] += sim.BytesAt(ops, s.cpuCompute.Capacity())
	a.occ[slotCPUMem] += sim.BytesAt(bytes, s.cpuMem.Capacity())
}

// occupyAccel charges stage k's station for one kernel execution.
func (a *appInstance) occupyAccel(k int, d sim.Duration) {
	a.occ[a.accelSlot[k]] += d / sim.Duration(a.accelSrv[k].Slots())
}

// occupyDRX charges hop k's DRX unit, spread across the unit's slots (a
// k-slot server serves k requests concurrently).
func (a *appInstance) occupyDRX(k int, d sim.Duration) {
	a.occ[a.drxSlot[k]] += d / sim.Duration(a.drxServer[k].Slots())
}

// bottleneck reports the largest per-request occupancy across the
// resources the app's requests used, with a deterministic (lexicographic)
// tie-break on the resource name.
func (a *appInstance) bottleneck() (sim.Duration, string) {
	if a.requests == 0 {
		return 0, ""
	}
	var max sim.Duration
	name := ""
	for i, d := range a.occ {
		per := d / sim.Duration(a.requests)
		if res := a.occNames[i]; per > max || (per == max && (name == "" || res < name)) {
			max, name = per, res
		}
	}
	return max, name
}

// Plan is the shareable immutable half of a System: validated layout
// (switch/device/card packing), warmed DRX timings and scheduling
// tables — everything that depends only on (Config, pipelines). One
// Plan materializes any number of cheap replicas via Instantiate; New
// is the single-host shorthand. Capacity bounds are derived on demand
// (Capacities), by walking requests through a private replica.
type Plan struct {
	cfg   Config
	pipes []*Pipeline

	apps      []planApp
	nSwitches int
	nDRX      int
	nCards    int

	// Sizes of a replica's per-app tables summed over the apps, so
	// Instantiate allocates each kind once: accelerator stages and hops
	// (none under AllCPU), occupancy slots, and bump-in-the-wire queue
	// pairs.
	stages, hops, slots, queuePairs int
}

// planApp is one pipeline's placement decisions and precomputed tables.
type planApp struct {
	// sw is the plain (unprefixed) switch the app's devices live on
	// ("" for AllCPU); newSwitch is true when this app opens it.
	sw        string
	newSwitch bool
	// cardDev is the plain standalone DRX card device ("" unless the
	// Standalone placement); newCard is true when this app brings it up.
	cardDev string
	newCard bool

	// pipeTables is shared by every app running the same *Pipeline,
	// except that an app with a fused pair gets a copy with
	// remaining-service tables of its own, built from its fusion table.
	*pipeTables
	fusion []hopFusion
}

// pipeTables is what a plan derives from a pipeline alone. Read-only
// after NewPlan, so replicas and parallel sweep workers share it.
type pipeTables struct {
	// hopDRX[k] is hop k's DRX service time under cfg.DRX (nil when the
	// placement has no DRX), resolved once through drxTimeOf.
	hopDRX []sim.Duration
	// hopCPU[k] is hop k's work when the host CPU restructures it:
	// always under MultiAxl and AllCPU, on degrade under the others (nil
	// when nothing can degrade: no faults and no retry policy).
	hopCPU []cpuWork
	// accelKey[k] is stage k's energy breakdown component (nil under
	// AllCPU, which runs no accelerator).
	accelKey []string

	remAtKernel []sim.Duration
	remAtHop    []sim.Duration
	maxBatch    int
	// slots is the size of an app's occupancy table.
	slots int
}

// fuseRole tags a hop's part in a fused pair.
type fuseRole uint8

const (
	fuseNone fuseRole = iota
	// fuseLeader runs the fused program's first segment, then holds the
	// DRX unit (resident context) until its follower resumes.
	fuseLeader
	// fuseFollower resumes the fused program's second segment on the
	// held unit, skipping driver and DMA-descriptor setup.
	fuseFollower
)

// hopFusion is one hop's role and service segment under fusion. The
// fused program's total service splits across the pair proportionally to
// the two unfused times, so each hop's segment reflects its share of the
// merged program's work.
type hopFusion struct {
	role fuseRole
	part sim.Duration
}

// fusionAt reports hop k's fusion role (fuseNone when fusion is off).
func (a *appInstance) fusionAt(k int) hopFusion {
	if a.fusion == nil {
		return hopFusion{}
	}
	return a.fusion[k]
}

// Apps reports how many pipelines the plan places.
func (p *Plan) Apps() int { return len(p.pipes) }

// Pipeline returns app i's pipeline.
func (p *Plan) Pipeline(i int) *Pipeline { return p.pipes[i] }

// NewPlan validates the configuration and pipelines and computes the
// shareable half of a System: layout, warmed DRX timings and
// scheduling tables. Everything that depends on a pipeline alone is
// computed once per distinct *Pipeline: a homogeneous sweep cell
// passes n copies of one pointer and pays for one.
func NewPlan(cfg Config, pipelines []*Pipeline) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pipelines) == 0 {
		return nil, fmt.Errorf("dmxsys: no pipelines")
	}
	p := &Plan{cfg: cfg, pipes: pipelines, apps: make([]planApp, len(pipelines))}
	for _, fp := range cfg.FuseHops {
		if fp.App >= len(pipelines) {
			return nil, fmt.Errorf("dmxsys: fuse pair app=%d hop=%d: only %d pipelines", fp.App, fp.Hop, len(pipelines))
		}
	}
	if cfg.Placement == Integrated {
		p.nDRX = 1
	}
	curSwitch := ""
	slotsLeft := 0
	// Standalone cards are shared by up to AppsPerStandaloneCard apps on
	// the same switch.
	cardDev := ""
	cardAppsLeft := 0
	tables := make(map[*Pipeline]*pipeTables)
	for i, pipe := range pipelines {
		t, ok := tables[pipe]
		if !ok {
			tv, err := newPipeTables(cfg, pipe)
			if err != nil {
				return nil, err
			}
			t = &tv
			tables[pipe] = t
		}
		pa := &p.apps[i]
		pa.pipeTables = t
		// Slot accounting covers accelerator ports; standalone DRX cards
		// ride dedicated card slots on the same switch so every placement
		// packs applications identically (the comparison isolates data
		// motion, not topology density).
		needCard := cfg.Placement == Standalone && cardAppsLeft == 0
		need := len(pipe.Stages)
		if cfg.Placement != AllCPU && need > slotsLeft {
			// A fresh switch also forces a fresh card: point-to-point DMA
			// to the card must stay under one switch.
			if cfg.Placement == Standalone {
				needCard = true
			}
			curSwitch = "sw" + strconv.Itoa(p.nSwitches)
			pa.newSwitch = true
			p.nSwitches++
			slotsLeft = SlotsPerSwitch
			if cfg.Placement == PCIeIntegrated {
				p.nDRX++
			}
		}
		pa.sw = curSwitch
		if cfg.Placement != AllCPU {
			slotsLeft -= need
			p.stages += need
			p.hops += len(pipe.Hops)
		}

		switch cfg.Placement {
		case Standalone:
			if needCard {
				cardDev = "sdrx" + strconv.Itoa(p.nCards)
				pa.newCard = true
				p.nCards++
				p.nDRX++
				cardAppsLeft = AppsPerStandaloneCard
			}
			cardAppsLeft--
			pa.cardDev = cardDev
		case BumpInTheWire:
			// One DRX inline with every accelerator; the terminal
			// accelerator's DRX exists too (pass-through in Fig. 10
			// step 10) and counts for energy.
			p.nDRX += len(pipe.Hops) + 1
			p.queuePairs += len(pipe.Hops)
		}

		// Resolve this app's fused pairs: compile the merged program, time
		// it, and split its service across the pair proportionally to the
		// unfused times. The split feeds the app's own SRS tables.
		for _, fp := range cfg.FuseHops {
			if fp.App != i {
				continue
			}
			if fp.Hop+1 >= len(pipe.Hops) {
				return nil, fmt.Errorf("dmxsys: fuse pair app=%d hop=%d: %s has %d hops (need an adjacent pair)",
					fp.App, fp.Hop, pipe.Name, len(pipe.Hops))
			}
			k1, k2 := pipe.Hops[fp.Hop].Kernel, pipe.Hops[fp.Hop+1].Kernel
			fused, err := drxc.FusedKernel(k1, k2)
			if err != nil {
				return nil, fmt.Errorf("dmxsys: fuse pair app=%d hop=%d: %w", fp.App, fp.Hop, err)
			}
			ft, err := drxTimeOf(cfg.DRX, fused)
			if err != nil {
				return nil, fmt.Errorf("dmxsys: fuse pair app=%d hop=%d: %w", fp.App, fp.Hop, err)
			}
			if pa.fusion == nil {
				pa.fusion = make([]hopFusion, len(pipe.Hops))
			}
			t1, t2 := pa.hopDRX[fp.Hop], pa.hopDRX[fp.Hop+1]
			part1 := ft / 2
			if t1+t2 > 0 {
				part1 = sim.Duration(float64(ft) * float64(t1) / float64(t1+t2))
			}
			pa.fusion[fp.Hop] = hopFusion{role: fuseLeader, part: part1}
			pa.fusion[fp.Hop+1] = hopFusion{role: fuseFollower, part: ft - part1}
		}
		if pa.fusion != nil {
			own := *pa.pipeTables
			own.remAtKernel, own.remAtHop = remainingService(cfg.Placement, pipe, own.hopDRX, pa.fusion)
			pa.pipeTables = &own
		}
		p.slots += pa.slots
	}
	return p, nil
}

// newPipeTables validates one pipeline and derives its tables under cfg.
func newPipeTables(cfg Config, pipe *Pipeline) (pipeTables, error) {
	var t pipeTables
	if err := pipe.Validate(); err != nil {
		return t, err
	}
	if need := len(pipe.Stages); need > SlotsPerSwitch {
		return t, fmt.Errorf("dmxsys: %s needs %d slots, switch has %d", pipe.Name, need, SlotsPerSwitch)
	}
	if cfg.Placement == BumpInTheWire {
		for k, h := range pipe.Hops {
			if h.InBytes > QueuePairBytes || h.OutBytes > QueuePairBytes {
				return t, fmt.Errorf("dmxsys: %s hop %d payload exceeds the %d MB data queue",
					pipe.Name, k, QueuePairBytes>>20)
			}
		}
	}

	// Resolve every hop's DRX service time onto the hop.
	if cfg.Placement.UsesDRX() {
		t.hopDRX = make([]sim.Duration, len(pipe.Hops))
		for k, h := range pipe.Hops {
			d, err := drxTimeOf(cfg.DRX, h.Kernel)
			if err != nil {
				return t, err
			}
			t.hopDRX[k] = d
		}
	}
	if !cfg.Placement.UsesDRX() || cfg.Faults.Enabled() || cfg.Retry.Enabled() {
		t.hopCPU = make([]cpuWork, len(pipe.Hops))
		for k, h := range pipe.Hops {
			t.hopCPU[k] = restructureWork(h.Kernel)
		}
	}
	if cfg.Placement != AllCPU {
		t.accelKey = make([]string, len(pipe.Stages))
		for k, st := range pipe.Stages {
			t.accelKey[k] = energy.AccelKey(st.Accel.Name)
		}
	}
	t.remAtKernel, t.remAtHop = remainingService(cfg.Placement, pipe, t.hopDRX, nil)

	// Batch-size ceiling: a bump-in-the-wire batch moves n× a hop's
	// payload through the inline DRX data queues, so cap n where the
	// scaled payload would exceed a queue (otherwise the batch could
	// never be admitted and the flow would deadlock).
	if cfg.Placement == BumpInTheWire && cfg.BatchWindow > 0 {
		for _, h := range pipe.Hops {
			per := h.InBytes
			if h.OutBytes > per {
				per = h.OutBytes
			}
			if per <= 0 {
				continue
			}
			cap := int(QueuePairBytes / per)
			if cap < 1 {
				cap = 1
			}
			if t.maxBatch == 0 || cap < t.maxBatch {
				t.maxBatch = cap
			}
		}
	}
	t.slots = occupancySlots(cfg.Placement, pipe)
	return t, nil
}

// remainingService builds the SchedSRS keys: walking the pipeline
// backwards, remAtKernel[k] / remAtHop[k] accumulate the precomputed
// station service demand still ahead of a request when it submits stage
// k's kernel / hop k's restructure (both nil for AllCPU, which has no
// contended stations). MultiAxl hops restructure on the uncontended CPU
// channels, so they contribute nothing to station demand; a fused hop's
// demand is its segment of the merged program.
func remainingService(pl Placement, pipe *Pipeline, hopDRX []sim.Duration, fusion []hopFusion) (remAtKernel, remAtHop []sim.Duration) {
	if pl == AllCPU {
		return nil, nil
	}
	n := len(pipe.Stages)
	remAtKernel = make([]sim.Duration, n)
	remAtHop = make([]sim.Duration, len(pipe.Hops))
	for k := n - 1; k >= 0; k-- {
		svc := pipe.Stages[k].Accel.Latency(pipe.Stages[k].InBytes)
		if k < len(pipe.Hops) {
			hop := sim.Duration(0)
			if pl.UsesDRX() {
				hop = hopDRX[k]
				if fusion != nil && fusion[k].role != fuseNone {
					hop = fusion[k].part
				}
			}
			remAtHop[k] = hop + remAtKernel[k+1]
			remAtKernel[k] = svc + remAtHop[k]
		} else {
			remAtKernel[k] = svc
		}
	}
	return remAtKernel, remAtHop
}

// occupancySlots sizes an app's occupancy table: one slot per shared
// resource its requests charge. Every placement charges the two host
// channels; off the All-CPU baseline an app also charges each stage's
// station and both directions of each stage's device link and of its
// switch uplink, plus its DRX: one unit per hop inline, else one shared
// unit (and, under Standalone, both directions of the card's link).
func occupancySlots(pl Placement, pipe *Pipeline) int {
	if pl == AllCPU {
		return 2
	}
	n := 2 + 3*len(pipe.Stages) + 2
	if len(pipe.Hops) > 0 {
		switch pl {
		case BumpInTheWire:
			n += len(pipe.Hops)
		case Integrated, PCIeIntegrated:
			n++
		case Standalone:
			n += 3
		}
	}
	return n
}

// HostOpts parameterizes one replica materialized from a Plan.
type HostOpts struct {
	// Prefix namespaces every station, link, and trace track of the
	// replica ("h3/" in a fleet). Empty reproduces the single-host
	// names bit-for-bit.
	Prefix string
	// Obs, when set, overrides cfg.Obs as the replica's event sink
	// (fleet replicas share one recorder on one engine).
	Obs *obs.Recorder
}

// Instantiate materializes one replica of the plan on the engine:
// fabric, channels, service stations, queues, and per-app runtime
// state. The expensive plan-time work (validation, DRX timing,
// scheduling tables) is shared; replicas are cheap. Several replicas
// may share one engine when their prefixes differ.
func (p *Plan) Instantiate(eng *sim.Engine, opts HostOpts) (*System, error) {
	cfg := p.cfg
	pfx := opts.Prefix
	s := &System{
		Eng:       eng,
		Fabric:    pcie.New(eng),
		cfg:       cfg,
		nSwitches: p.nSwitches,
		nDRX:      p.nDRX,
	}
	// Wire the structured trace sink.
	s.rec = opts.Obs
	if s.rec == nil {
		s.rec = cfg.Obs
	}
	if s.rec != nil {
		eng.Obs = s.rec
	}

	// Fault injection: a disabled plan yields a nil injector, and every
	// downstream query is nil-safe, so the fault-free build is
	// unchanged. Station names are host-prefixed, and the injector's
	// timelines key off the station name, so fleet replicas draw
	// independent incident streams from the same seed.
	s.inj = faults.New(cfg.Faults, s.rec)
	s.hazardous = s.inj.Enabled() || cfg.Retry.Enabled()
	if s.inj.Enabled() {
		s.Fabric.SetFaults(s.inj)
	}

	m := hostCPU
	opsPerSec := float64(m.Cores) * m.FreqHz * float64(m.SIMDLanes) * m.IssueEff
	s.cpuCompute = sim.NewChannel(eng, pfx+"cpu.compute", opsPerSec)
	s.cpuMem = sim.NewChannel(eng, pfx+"cpu.mem", m.MemBWBytes)

	accelLink := pcie.LinkConfig{Gen: cfg.Gen, Lanes: AccelLanes}
	uplink := pcie.LinkConfig{Gen: cfg.Gen, Lanes: cfg.UplinkLanes}

	s.drxServers = make([]*sim.Server, 0, p.nDRX)
	integratedDRX := (*sim.Server)(nil)
	if cfg.Placement == Integrated {
		integratedDRX = sim.NewServerDisc(eng, pfx+"drx.integrated", 1, cfg.discipline())
		s.drxServers = append(s.drxServers, integratedDRX)
	}
	var card, switchDRX *sim.Server
	sw, cardDev := "", ""

	// Every app's tables are windows of one array per kind, sized by the
	// plan, so the replica's app state costs a fixed number of
	// allocations however many apps it runs.
	insts := make([]appInstance, len(p.pipes))
	s.apps = make([]*appInstance, len(p.pipes))
	devs := make([]string, p.stages)
	accelSrv := make([]*sim.Server, p.stages)
	accelSlot := make([]int, p.stages)
	drxSrv := make([]*sim.Server, p.hops)
	drxSlot := make([]int, p.hops)
	hops := make([]hopRoute, p.hops)
	occ := make([]sim.Duration, p.slots)
	occNames := make([]string, p.slots)
	queues := make([]QueuePair, p.queuePairs)

	for i, pipe := range p.pipes {
		pa := &p.apps[i]
		a := &insts[i]
		s.apps[i] = a
		a.id, a.pipe, a.hopDRX, a.hopCPU, a.accelKey = i, pipe, pa.hopDRX, pa.hopCPU, pa.accelKey
		a.occ = carve(&occ, pa.slots)[:0]
		a.occNames = carve(&occNames, pa.slots)[:0]
		a.slot(s.cpuCompute.Name()) // slotCPUCompute
		a.slot(s.cpuMem.Name())     // slotCPUMem
		a.rep.App = pipe.Name
		a.track = pfx + pipe.Name + "#" + strconv.Itoa(i)
		if pa.newSwitch {
			sw = pfx + pa.sw
			if err := s.Fabric.AddSwitch(sw, uplink); err != nil {
				return nil, err
			}
			if cfg.Placement == PCIeIntegrated {
				switchDRX = sim.NewServerDisc(eng, "drx."+sw, PCIeIntegratedSlots, cfg.discipline())
				s.drxServers = append(s.drxServers, switchDRX)
			}
		}

		if cfg.Placement != AllCPU {
			n, h := len(pipe.Stages), len(pipe.Hops)
			a.accelDev, a.accelSrv, a.accelSlot = carve(&devs, n), carve(&accelSrv, n), carve(&accelSlot, n)
			a.drxServer, a.drxSlot, a.hops = carve(&drxSrv, h), carve(&drxSlot, h), carve(&hops, h)
			for k, st := range pipe.Stages {
				// The station is named dev:accel, and the device name is
				// that string's prefix.
				name := pfx + "a" + strconv.Itoa(i) + "." + strconv.Itoa(k) + ":" + st.Accel.Name
				dev := name[:len(name)-len(st.Accel.Name)-1]
				if err := s.Fabric.AddDevice(dev, sw, accelLink); err != nil {
					return nil, err
				}
				a.accelDev[k] = dev
				a.accelSrv[k] = sim.NewServerDisc(eng, name, 1, cfg.discipline())
			}
		}

		switch cfg.Placement {
		case Integrated:
			for k := range pipe.Hops {
				a.drxServer[k] = integratedDRX
			}
		case Standalone:
			if pa.newCard {
				cardDev = pfx + pa.cardDev
				if err := s.Fabric.AddDevice(cardDev, sw, accelLink); err != nil {
					return nil, err
				}
				card = sim.NewServerDisc(eng, cardDev, 1, cfg.discipline())
				s.drxServers = append(s.drxServers, card)
			}
			for k := range pipe.Hops {
				a.drxServer[k] = card
			}
		case PCIeIntegrated:
			for k := range pipe.Hops {
				a.drxServer[k] = switchDRX
			}
		case BumpInTheWire:
			// One DRX inline with every accelerator; hop k runs on the
			// upstream accelerator's DRX (Fig. 10: DRX_1 restructures).
			for k := range pipe.Hops {
				unit := sim.NewServerDisc(eng, "drx."+a.accelDev[k], 1, cfg.discipline())
				a.drxServer[k] = unit
				s.drxServers = append(s.drxServers, unit)
			}
		}
		if err := s.resolve(a, cardDev, &queues); err != nil {
			return nil, err
		}

		// The scheduling tables, batch ceiling, and fusion table are plan
		// state: shared read-only across replicas.
		a.remAtKernel = pa.remAtKernel
		a.remAtHop = pa.remAtHop
		a.maxBatch = pa.maxBatch
		a.fusion = pa.fusion

		if cfg.BatchWindow > 0 {
			// Preallocated window-expiry closure: arming the batch window
			// in steady state reuses it instead of allocating per window.
			a.flushFn = func() {
				a.flushArmed = false
				s.flush(a)
			}
		}
	}
	return s, nil
}

// carve cuts the next n elements off the front of *slab. The window's
// capacity ends at n, so an append past it copies out instead of
// running into the next window.
func carve[T any](slab *[]T, n int) []T {
	w := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return w
}

// resolve fixes every per-request constant of app a once: its station
// occupancy slots, its fabric legs (input, output, and each hop's legs
// under the placement plus the CPU-fallback pair), and, under
// bump-in-the-wire, each hop's data queues, carved from *queues.
// cardDev is the app's standalone DRX card.
func (s *System) resolve(a *appInstance, cardDev string, queues *[]QueuePair) error {
	if s.cfg.Placement == AllCPU {
		return nil
	}
	fabric := s.Fabric
	route := func(l *leg, from, to string) error {
		rt, err := fabric.Route(from, to)
		if err != nil {
			return err
		}
		*l = a.newLeg(rt, from, to)
		return nil
	}
	for k, srv := range a.accelSrv {
		a.accelSlot[k] = a.slot(srv.Name())
	}
	if err := route(&a.input, pcie.Root, a.accelDev[0]); err != nil {
		return err
	}
	if err := route(&a.output, a.accelDev[len(a.accelDev)-1], pcie.Root); err != nil {
		return err
	}
	for k := range a.hops {
		h := &a.hops[k]
		from, to := a.accelDev[k], a.accelDev[k+1]
		if err := route(&h.toHost, from, pcie.Root); err != nil {
			return err
		}
		if err := route(&h.fromHost, pcie.Root, to); err != nil {
			return err
		}
		unit := a.drxServer[k]
		if unit != nil {
			a.drxSlot[k] = a.slot(unit.Name())
		}
		switch s.cfg.Placement {
		case Standalone:
			if err := route(&h.in, from, cardDev); err != nil {
				return err
			}
			if err := route(&h.out, cardDev, to); err != nil {
				return err
			}
		case PCIeIntegrated:
			up, err := fabric.UpRoute(from)
			if err != nil {
				return err
			}
			down, err := fabric.DownRoute(to)
			if err != nil {
				return err
			}
			h.in = a.newLeg(up, from, unit.Name())
			h.out = a.newLeg(down, unit.Name(), to)
		case BumpInTheWire:
			if err := route(&h.out, from, to); err != nil {
				return err
			}
			// Stage k's output lands in DRX_k's RX queue for the
			// downstream peer (Fig. 10 step ④), is restructured into the
			// TX queue (step ⑦), and the TX entry releases when the P2P
			// DMA to the peer completes (step ⑩). Each DRX statically
			// partitions its queue memory across the chain's peers
			// (Sec. V); a hop only ever uses its pair toward the peer.
			qs, err := NewQueueSet(unit.Name(), a.accelDev)
			if err != nil {
				return err
			}
			qp := &carve(queues, 1)[0]
			if err := qs.Pair(to, qp); err != nil {
				return err
			}
			h.rx, h.tx = &qp.RX, &qp.TX
		}
	}
	return nil
}

// New assembles a system running the given pipelines concurrently (one
// app instance per entry). It is NewPlan + Instantiate on a fresh
// engine — bit-for-bit the historical single-host build.
func New(cfg Config, pipelines []*Pipeline) (*System, error) {
	p, err := NewPlan(cfg, pipelines)
	if err != nil {
		return nil, err
	}
	return p.Instantiate(sim.NewEngine(), HostOpts{})
}

// FusionCandidate is one legal adjacent-hop fusion under the plan's
// placement, with the analytic DRX service times a search seeds from:
// fusing trades (Unfused − Fused) of execution plus one saved driver
// round trip against holding the unit across the intermediate stage.
type FusionCandidate struct {
	App, Hop int
	// Unfused is the pair's summed standalone DRX service.
	Unfused sim.Duration
	// Fused is the merged program's single DRX service.
	Fused sim.Duration
}

// FusionCandidates enumerates every adjacent hop pair that could legally
// fuse under the plan's placement: the placement shares one DRX unit
// across adjacent hops, the two kernels chain (restructure.Fuse accepts
// them), and the merged program compiles. Illegal or infusible pairs are
// silently skipped — the enumeration answers "what could a search try",
// not "what did the user ask for" (NewPlan errors on explicit FuseHops
// that do not apply). Safe after NewPlan: timings resolve through the
// process-wide cache, never by mutating shared plan state.
func (p *Plan) FusionCandidates() []FusionCandidate {
	switch p.cfg.Placement {
	case Integrated, Standalone, PCIeIntegrated:
	default:
		return nil
	}
	var out []FusionCandidate
	for i, pipe := range p.pipes {
		for k := 0; k+1 < len(pipe.Hops); k++ {
			k1, k2 := pipe.Hops[k].Kernel, pipe.Hops[k+1].Kernel
			fused, err := drxc.FusedKernel(k1, k2)
			if err != nil {
				continue
			}
			ft, err := drxTimeOf(p.cfg.DRX, fused)
			if err != nil {
				continue
			}
			out = append(out, FusionCandidate{
				App:     i,
				Hop:     k,
				Unfused: p.apps[i].hopDRX[k] + p.apps[i].hopDRX[k+1],
				Fused:   ft,
			})
		}
	}
	return out
}

// drxTimeOf compiles a restructuring kernel for a DRX configuration
// through drxc's process-wide program cache and times it without moving
// data. DRX cycle accounting depends only on the program — element
// counts, strides, dtypes, lanes — never on the bytes it moves, so
// drxc.Time walks the compiled program instead of executing it over
// materialized inputs. That is the paper's own method: its end-to-end
// emulation is driven by measured cycle latencies. The cache keys on the
// kernel's fingerprint and the full drx.Config, and drxc.Time walks each
// cached program once, so repeat calls cost a lookup, hosts with
// different DRX geometries never share a time, and neither do kernels
// that differ only in their stages. It never touches plan state, so it
// is safe after NewPlan and under parallel sweep workers.
func drxTimeOf(dcfg drx.Config, k *restructure.Kernel) (sim.Duration, error) {
	c, err := drxc.CompileCached(k, dcfg)
	if err != nil {
		return 0, fmt.Errorf("dmxsys: compiling %s for DRX: %w", k.Name, err)
	}
	res, err := drxc.Time(c)
	if err != nil {
		return 0, fmt.Errorf("dmxsys: timing %s on DRX: %w", k.Name, err)
	}
	return sim.FromSeconds(res.Seconds(dcfg.ClockHz)), nil
}

// driverDelay models completion signaling NAPI-style (Sec. V): each
// completion is normally an interrupt, but when the recent arrival rate
// crosses the coalescing threshold the driver switches to polling and
// per-completion cost drops. The recent-event window is pruned on every
// call, so the mode tracks load dynamically and deterministically.
func (s *System) driverDelay() sim.Duration {
	now := s.Eng.Now()
	cutoff := now.Add(-CoalesceWindow)
	keep := s.irqTimes[:0]
	for _, t := range s.irqTimes {
		if t >= cutoff {
			keep = append(keep, t)
		}
	}
	s.irqTimes = append(keep, now)
	if len(s.irqTimes) > CoalesceThreshold {
		return PollLatency
	}
	return InterruptLatency
}

// cpuJob posts a restructuring (or software kernel) job on the host's
// two shared channels and fires done when both drains complete. The
// collectives use it; the request walk joins the two drains on its
// carrier instead (carrier.cpuJob).
func (s *System) cpuJob(ops int64, bytes int64, done func()) {
	pending := 2
	finish := func() {
		pending--
		if pending == 0 {
			done()
		}
	}
	s.cpuCompute.Start(ops, finish)
	s.cpuMem.Start(bytes, finish)
}

// cpuWork is the host work of restructuring one kernel in software:
// operations on the compute channel, bytes on the memory channel.
type cpuWork struct{ ops, bytes int64 }

// restructureWork computes the CPU channel work for one kernel. It
// depends on the kernel alone, so plans compute it once per hop
// (pipeTables.hopCPU).
func restructureWork(k *restructure.Kernel) cpuWork {
	m := hostCPU
	var w cpuWork
	for _, st := range k.Stages {
		stats := st.Stats(k)
		w.ops += stats.Ops
		traffic := float64(stats.BytesIn+stats.BytesOut) * m.ThrashFactor
		if !stats.VectorFriendly {
			traffic *= m.NonStreamPenalty
		}
		w.bytes += int64(traffic)
	}
	w.ops = max(w.ops, 1)
	w.bytes = max(w.bytes, 1)
	return w
}

// FaultCounts reports the incidents the injector observed during the
// run (all zero without a fault plan).
func (s *System) FaultCounts() faults.Counts {
	if s.inj == nil {
		return faults.Counts{}
	}
	return s.inj.Counts
}

// OnFaultIncident registers fn to observe every fresh fault incident
// (outage, link window, stall, transient) this host records, called
// synchronously on the host's engine right after the count increments.
// A system without fault injection ignores the hook.
func (s *System) OnFaultIncident(fn func()) {
	if s.inj != nil {
		s.inj.OnIncident = fn
	}
}

// Energy meters the completed run (call after Run).
func (s *System) energyReport(makespan sim.Duration) (float64, map[string]float64) {
	meter := energy.NewMeter(energyParams)
	cpuBusy := s.cpuCompute.BusyTime
	if s.cpuMem.BusyTime > cpuBusy {
		cpuBusy = s.cpuMem.BusyTime
	}
	meter.AddCPU(cpuBusy, makespan)
	for _, a := range s.apps {
		for k, key := range a.accelKey {
			meter.AddAccelerator(key, a.pipe.Stages[k].Accel.PowerW, a.accelSrv[k].BusyTime)
		}
	}
	if s.nDRX > 0 {
		// drxServers is collected at build time: name-prefix matching
		// breaks once host prefixes namespace the stations.
		var drxBusy sim.Duration
		for _, srv := range s.drxServers {
			drxBusy += srv.BusyTime
		}
		avg := sim.Duration(0)
		if n := len(s.drxServers); n > 0 {
			avg = drxBusy / sim.Duration(n)
		}
		meter.AddDRX(s.nDRX, avg, makespan)
	}
	meter.AddSwitches(s.nSwitches, makespan)
	meter.AddTraffic(s.Fabric.TotalBytes() + s.localBytes)
	return meter.Total(), meter.Breakdown()
}
