package dmxsys

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"dmx/internal/obs"
	"dmx/internal/pcie"
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// This file implements the end-to-end request flow for every system
// configuration as one explicit state machine. A *carrier walks an
// application's pipeline for n ≥ 1 member requests: its own cursor (the
// stage index), phase, lap tracker, fault state and queue reservations
// move payloads, CPU work and DRX service scaled by n. An unbatched
// request is a carrier of one; a closed batch (batch.go) is a carrier of
// several. Run and RunLoad are thin front-ends over the same machine:
// they differ only in the arrival offsets they feed the shared drive
// loop.
//
// Between events a carrier is parked in one phase: the protocol step it
// resumes at when the engine, a service station, a host channel or a
// fabric transfer calls it back. The callback is always c.next, bound
// once to step when the shell is first allocated (under faults, a pooled
// guard ticket that calls it), so advancing the walk allocates nothing.
// step dispatches on the phase (Fig. 10 step numbers for
// bump-in-the-wire):
//
//	input-dma         the payload lands on the first accelerator: stage k's kernel
//	kernel-submit     a stall or retry backoff ends: submit stage k's kernel again
//	kernel            the kernel completes ①: hop k, or the output leg after the last stage
//	kernel-timeout    the stage watchdog fired on the kernel: retry or abandon
//	output-setup      the driver round trip ends: DMA the result to the host
//	output-dma        the result lands: every member retires
//	cpu-kernel        (All-CPU) the software kernel drains both host channels
//	cpu-restructure   (All-CPU) hop k's software restructure drains: stage k+1
//	host-in-setup     (Multi-Axl, Integrated) DMA accelerator → host memory
//	host-in-dma       the payload is in host memory: restructure there
//	host-cpu          the host CPU restructured it (also every degraded hop)
//	host-out-setup    DMA host → next accelerator
//	host-out-dma      it lands: stage k+1's kernel
//	p2p-in-setup      (Standalone, PCIe-Integrated) P2P DMA accelerator → DRX
//	p2p-in-dma        it lands: restructure on the DRX
//	p2p-out-setup     P2P DMA DRX → next accelerator
//	p2p-out-dma       it lands: stage k+1's kernel
//	rx-admit          ② done: claim RX queue space, retrying while it is full ③
//	rx-move           the local move into the inline DRX lands ④: restructure
//	drx-submit        a transient-fault backoff ends: submit the restructure again
//	drx               the DRX restructure completes ⑤–⑦
//	drx-hold          a fused leader's first segment completes, its slot retained
//	degrade           the watchdog fired on the restructure: fall back to the host CPU
//	degrade-in-setup  DMA accelerator → host memory for the CPU fallback
//	degrade-in-dma    it lands: restructure on the host CPU (then host-cpu)
//	tx-admit          claim TX queue space for the restructured payload ⑦
//	tx-setup          interrupt ⑧: P2P DMA to the peer ⑨
//	tx-dma            it lands ⑩: stage k+1's kernel ⑪
//	resend            a link-down backoff ends: start the leg's DMA again
//
// On the fault-free path a carrier has exactly one continuation
// outstanding, which is why one phase field suffices. The one join is a
// host CPU job, whose two channels count down on the carrier (joined)
// before the phase advances. Under faults the only other callbacks in
// flight are the stage watchdog (its own bound func, its epoch on the
// carrier) and completions that lost a watchdog race or outlived the
// carrier, which their guard ticket drops before they read the phase.
//
// Every protocol step also emits a structured obs event (see
// internal/obs): an instant at the moment the old text trace logged a
// line, a span when an interval closes (DMA legs, per-phase laps), and a
// flow pair linking the two endpoints of a DMA. The text trace is a
// rendering of these events, never a separate code path.
//
// Errors (fabric transfer failures, queue accounting violations, DRX
// timing failures) do not panic: the carrier records the first error on
// the System via fail and stops advancing; the drive loop surfaces it
// from Run or RunLoad after the engine drains.

// component tags attribute elapsed time in the app report.
type component int

const (
	compKernel component = iota
	compRestructure
	compMovement
)

// obsPhase maps the report component onto the obs taxonomy.
func (p component) obsPhase() obs.Phase {
	switch p {
	case compKernel:
		return obs.PhaseKernel
	case compRestructure:
		return obs.PhaseRestructure
	}
	return obs.PhaseMovement
}

// phase is where a parked carrier resumes: the protocol step its next
// callback runs (see the list above). The zero phase is a shell that is
// not walking.
type phase uint8

const (
	phIdle phase = iota
	phInputDMA
	phKernelSubmit
	phKernel
	phKernelTimeout
	phOutputSetup
	phOutputDMA
	phCPUKernel
	phCPURestructure
	phHostInSetup
	phHostInDMA
	phHostCPU
	phHostOutSetup
	phHostOutDMA
	phP2PInSetup
	phP2PInDMA
	phP2POutSetup
	phP2POutDMA
	phRXAdmit
	phRXMove
	phDRXSubmit
	phDRX
	phDRXHold
	phDegrade
	phDegradeInSetup
	phDegradeInDMA
	phTXAdmit
	phTXSetup
	phTXDMA
	phResend
)

var phaseNames = [...]string{
	phIdle:           "idle",
	phInputDMA:       "input-dma",
	phKernelSubmit:   "kernel-submit",
	phKernel:         "kernel",
	phKernelTimeout:  "kernel-timeout",
	phOutputSetup:    "output-setup",
	phOutputDMA:      "output-dma",
	phCPUKernel:      "cpu-kernel",
	phCPURestructure: "cpu-restructure",
	phHostInSetup:    "host-in-setup",
	phHostInDMA:      "host-in-dma",
	phHostCPU:        "host-cpu",
	phHostOutSetup:   "host-out-setup",
	phHostOutDMA:     "host-out-dma",
	phP2PInSetup:     "p2p-in-setup",
	phP2PInDMA:       "p2p-in-dma",
	phP2POutSetup:    "p2p-out-setup",
	phP2POutDMA:      "p2p-out-dma",
	phRXAdmit:        "rx-admit",
	phRXMove:         "rx-move",
	phDRXSubmit:      "drx-submit",
	phDRX:            "drx",
	phDRXHold:        "drx-hold",
	phDegrade:        "degrade",
	phDegradeInSetup: "degrade-in-setup",
	phDegradeInDMA:   "degrade-in-dma",
	phTXAdmit:        "tx-admit",
	phTXSetup:        "tx-setup",
	phTXDMA:          "tx-dma",
	phResend:         "resend",
}

func (p phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// obsInstant emits one protocol instant (a Fig. 10 moment) for app a.
func (s *System) obsInstant(a *appInstance, typ obs.Type, step uint8, track, peer, name string, bytes int64) {
	s.rec.Instant(obs.Time(s.Eng.Now()), typ, step, track, peer, a.pipe.Name, name, bytes)
}

// request is one admitted request: only what belongs to it alone. The
// walk itself — cursor, phase, fault and queue state — lives on the
// carrier that moves it. Records are pooled per System: newRequest
// takes one and carrier.retire returns it once hand has returned, so a
// retired callback that admits again gets a different record.
type request struct {
	// start is the admission instant; deadline is the absolute latency
	// budget (zero = none), the key EDF schedules by.
	start    sim.Time
	deadline sim.Time

	// outcome classifies how the request retired; retries/timeouts
	// accumulate the recovery events charged to it for the report.
	outcome  traffic.Outcome
	retries  int
	timeouts int

	// track is the request's trace timeline (the app track, suffixed
	// with a request ordinal under streamed execution so concurrent
	// requests never interleave spans on one track).
	track string

	// retired is the admitting driver's callback, carried here rather
	// than wrapped; it is nil once the request retired.
	retired func(traffic.Retired)
}

// hand retires the request to whoever admitted it, exactly once.
func (r *request) hand() {
	if retired := r.retired; retired != nil {
		r.retired = nil
		retired(traffic.Retired{Outcome: r.outcome, Retries: r.retries, Timeouts: r.timeouts, Start: r.start})
	}
}

// carrier walks one application's pipeline for its members.
type carrier struct {
	s *System
	a *appInstance

	// members are the requests riding the carrier, in arrival order.
	// Members leave by peeling (a batch's transient fault) or when the
	// carrier retires.
	members []*request
	// batched marks a closed batch. It keeps batch semantics for the
	// whole walk — its own trace track, peel-and-retry on a transient
	// fault — even once peeling has shrunk it to one member.
	batched bool

	// k is the stage cursor: the index of the pipeline stage the carrier
	// is currently executing (or moving its output away from).
	k int

	// phase is where the carrier resumes when next runs. next is step,
	// bound once when the shell is first allocated; like members it
	// survives release. join counts the host channels a CPU job still
	// waits on.
	phase phase
	next  func()
	join  int

	// track is the carrier's trace timeline: its member's own track for
	// a solo request, a batch track otherwise. mark is the lap tracker:
	// the start of the current contiguous segment, closed by lap into
	// one of the three report components.
	track string
	mark  sim.Time

	// legBegin is the start time of the DMA leg currently in flight
	// (legs within one walk are strictly sequential); dma is that leg's
	// transfer phase and xfer numbers its start attempts.
	legBegin sim.Time
	dma      phase
	xfer     int
	// rx, tx are the bump-in-the-wire data queues of the hop in
	// progress; rxHeld/txHeld mirror the bytes currently reserved so a
	// degrade or abandon mid-hop can release them (a held reservation
	// would deadlock peer carriers waiting on queue space).
	rx, tx         *DataQueue
	rxHeld, txHeld int64

	// Fault-handling state, all zero on the fault-free path. attempt
	// numbers the tries of the stage operation in progress; epoch
	// invalidates in-flight completions after a watchdog fires or the
	// carrier retires; live is false once the carrier retired or failed.
	attempt int
	epoch   int
	live    bool
	// The stage watchdog: its pending event, the epoch it was armed at,
	// the name it charges, and the phase it runs on firing. wdFire is
	// bound to timedOut the first time the shell arms a watchdog and,
	// like next, survives release.
	watchdog sim.EventRef
	wdArmed  bool
	wdEpoch  int
	wdName   string
	wdPhase  phase
	wdFire   func()

	// hold is the DRX slot a fused leader hop retained (nil otherwise);
	// holdAt is the instant the hold was delivered. The follower hop
	// resumes the resident program on it, or degradation releases it.
	hold   *sim.Hold
	holdAt sim.Time
}

// n is the live member count.
func (c *carrier) n() int64 { return int64(len(c.members)) }

// newCarrier takes a recycled carrier shell from the pool (or allocates
// one the first time, binding its step callback and registering it for
// the drain diagnosis). A pooled shell comes back dead, so stale
// completions from its previous life drop; revive it here, keeping the
// epoch — which release bumped past every ticket issued before —
// monotone across lives.
func (s *System) newCarrier(a *appInstance) *carrier {
	var c *carrier
	if n := len(s.carrierPool); n > 0 {
		c = s.carrierPool[n-1]
		s.carrierPool = s.carrierPool[:n-1]
	} else {
		c = &carrier{s: s}
		c.next = c.step
		s.carriers = append(s.carriers, c)
	}
	c.a = a
	c.live = true
	return c
}

// release retires the carrier shell back to the pool: dead until
// newCarrier revives it, and the epoch advanced past every ticket
// issued in this life, so a stale guarded completion (say an abandoned
// carrier's kernel job still queued in a sim.Server) can never match the
// shell's next incarnation. A watchdog still armed is cancelled: its
// epoch is kept on the carrier, so it must not outlive the life that
// armed it. The owning System, the bound callbacks and the members
// slice survive: a stale ticket that fires on a pooled shell still
// finds the pool to return to.
func (c *carrier) release() {
	s := c.s
	c.disarm()
	*c = carrier{s: s, members: c.members[:0], epoch: c.epoch + 1, next: c.next, wdFire: c.wdFire}
	s.carrierPool = append(s.carrierPool, c)
}

// step advances the carrier from its phase. It is the one callback the
// carrier hands out (c.next), directly or through a guard ticket.
func (c *carrier) step() {
	switch c.phase {
	case phInputDMA:
		c.landed()
		c.stepKernel()
	case phKernelSubmit:
		c.kernelAttempt()
	case phKernel:
		c.kernelDone()
	case phKernelTimeout:
		c.kernelTimeout()
	case phOutputSetup:
		c.send(phOutputDMA)
	case phOutputDMA:
		c.landed()
		c.finish()
	case phCPUKernel:
		if c.joined() {
			c.cpuKernelDone()
		}
	case phCPURestructure:
		if c.joined() {
			c.cpuRestructured()
		}
	case phHostInSetup:
		c.send(phHostInDMA)
	case phHostInDMA:
		c.hopHostArrived()
	case phHostCPU:
		if c.joined() {
			c.hopHostRestructured()
		}
	case phHostOutSetup:
		c.send(phHostOutDMA)
	case phHostOutDMA, phP2POutDMA:
		c.landed()
		c.nextStage()
	case phP2PInSetup:
		c.send(phP2PInDMA)
	case phP2PInDMA:
		c.landed()
		c.restructureDRX()
	case phP2POutSetup:
		c.send(phP2POutDMA)
	case phRXAdmit:
		c.hopBumpRXAdmit()
	case phRXMove:
		c.hopBumpAtDRX()
	case phDRXSubmit:
		c.restructureAttempt()
	case phDRX:
		c.drxServed()
	case phDegrade:
		c.degradeHop()
	case phDegradeInSetup:
		c.send(phDegradeInDMA)
	case phDegradeInDMA:
		c.landed()
		c.cpuRestructure(phHostCPU)
	case phTXAdmit:
		c.hopBumpTXAdmit()
	case phTXSetup:
		c.send(phTXDMA)
	case phTXDMA:
		c.hopBumpDone()
	case phResend:
		c.fabricAttempt()
	default:
		c.fail(fmt.Errorf("dmxsys: %s carrier stepped in phase %v", c.a.pipe.Name, c.phase))
	}
}

// await parks the carrier in phase p and returns the callback that
// resumes it there.
func (c *carrier) await(p phase) func() {
	c.phase = p
	return c.guard()
}

// after resumes the carrier in phase p, d from now.
func (c *carrier) after(d sim.Duration, p phase) {
	c.s.Eng.Schedule(d, c.await(p))
}

// guard returns the carrier's resumption callback. Under faults it is a
// pooled ticket holding the carrier's epoch: a completion that lost a
// watchdog race, or that arrived after the carrier retired, is dropped
// before it reads the phase. On the fault-free path it is c.next itself,
// so timing and allocation behavior are unchanged.
func (c *carrier) guard() func() {
	if !c.s.hazardous {
		return c.next
	}
	return c.s.ticket(c).fire
}

// ticket is one guarded completion: the carrier and the epoch it was
// issued at. It is sound to recycle a ticket the moment it fires because
// every guarded completion fires exactly once: servers and channels
// never recall work, and no guarded engine event is cancelled (only the
// watchdog is, and it keeps its epoch on the carrier). fire is bound
// when the ticket is made, hold the first time a fused leader needs it.
type ticket struct {
	c     *carrier
	epoch int
	fire  func()
	hold  func(*sim.Hold)
}

// ticket takes a ticket for carrier c at its current epoch.
func (s *System) ticket(c *carrier) *ticket {
	var t *ticket
	if n := len(s.tickets); n > 0 {
		t = s.tickets[n-1]
		s.tickets = s.tickets[:n-1]
	} else {
		t = &ticket{}
		t.fire = t.call
	}
	t.c, t.epoch = c, c.epoch
	return t
}

// spend returns t to the pool and reports its carrier and whether the
// carrier is still the live epoch the ticket was issued to.
func (t *ticket) spend() (*carrier, bool) {
	c, e := t.c, t.epoch
	t.c = nil
	c.s.tickets = append(c.s.tickets, t)
	return c, c.live && c.epoch == e
}

// call is a guarded completion firing.
func (t *ticket) call() {
	if c, current := t.spend(); current {
		c.step()
	}
}

// held is a fused leader's hold arriving. It bypasses guard's drop: a
// dropped hold would leak the retained slot and wedge the unit, so a
// stale one is released instead.
func (t *ticket) held(h *sim.Hold) {
	c, current := t.spend()
	if !current {
		h.Release()
		return
	}
	c.leaderHeld(h)
}

// arm starts the per-stage watchdog, when one is configured: if the
// guarded operation has not completed within Retry.StageDeadline, the
// in-flight completion is invalidated (epoch bump) and the carrier runs
// phase onTimeout. Without a watchdog arm returns before touching
// anything.
func (c *carrier) arm(name string, onTimeout phase) {
	s := c.s
	if !s.hazardous || s.cfg.Retry.StageDeadline <= 0 {
		return
	}
	if c.wdFire == nil {
		c.wdFire = c.timedOut
	}
	c.wdEpoch, c.wdName, c.wdPhase = c.epoch, name, onTimeout
	c.watchdog = s.Eng.Schedule(s.cfg.Retry.StageDeadline, c.wdFire)
	c.wdArmed = true
}

// timedOut is the stage watchdog firing. The timeout is charged to the
// first member. The stalled station keeps its slot busy — injected
// faults wedge devices, they do not recall submitted work.
func (c *carrier) timedOut() {
	if !c.live || c.epoch != c.wdEpoch {
		return
	}
	c.epoch++
	c.wdArmed = false
	c.members[0].timeouts++
	c.s.obsInstant(c.a, obs.TypeTimeout, 0, c.track, "", c.wdName, 0)
	c.phase = c.wdPhase
	c.step()
}

// disarm cancels a pending watchdog (no-op when none is armed).
func (c *carrier) disarm() {
	if c.wdArmed {
		c.watchdog.Cancel()
		c.wdArmed = false
	}
}

// releaseQueues returns any bump-in-the-wire queue reservations the
// carrier still holds.
func (c *carrier) releaseQueues() {
	if c.rxHeld > 0 && c.rx != nil {
		if err := c.rx.Dequeue(c.rxHeld); err != nil {
			c.fail(fmt.Errorf("dmxsys: %w", err))
		}
		c.rxHeld = 0
	}
	if c.txHeld > 0 && c.tx != nil {
		if err := c.tx.Dequeue(c.txHeld); err != nil {
			c.fail(fmt.Errorf("dmxsys: %w", err))
		}
		c.txHeld = 0
	}
}

// releaseHold returns a fused leader's retained DRX slot (no-op when
// none is held). Every path that diverts a carrier off the fused flow —
// abandon, degradation — must call it, or the held slot would starve
// every other request of the unit.
func (c *carrier) releaseHold() {
	if c.hold != nil {
		c.hold.Release()
		c.hold = nil
	}
}

// abandon retires every member unfinished after the retry budget is
// exhausted (a dead link, a kernel watchdog out of attempts): the
// hardware incident is shared, so the whole carrier is. Members still
// retire through hand so the drive loop's outstanding count drains and
// the run completes.
func (c *carrier) abandon() {
	c.disarm()
	c.epoch++ // drop any completion still in flight
	c.releaseQueues()
	c.releaseHold()
	for _, m := range c.members {
		m.outcome = traffic.OutcomeAbandoned
		c.s.obsInstant(c.a, obs.TypeAbandon, 0, m.track, "", "", 0)
		c.retire(m)
	}
	c.release()
}

// admit is the serving front door for one arrival: admission control
// first, then the batching window when one is configured, then a
// carrier of one. deadline, when positive, is the per-request latency
// budget relative to now; retired is called when the request retires.
func (s *System) admit(a *appInstance, deadline sim.Duration, retired func(traffic.Retired)) {
	if s.cfg.AdmitLimit > 0 && a.inflight >= s.cfg.AdmitLimit {
		s.obsInstant(a, obs.TypeReject, 0, a.track, "", "", int64(a.inflight))
		// The request never executes: retire it directly, with no
		// record, so the drive loop's outstanding count drains, without
		// touching a.requests (occupancy and report totals cover
		// executed requests only).
		retired(traffic.Retired{Outcome: traffic.OutcomeRejected})
		return
	}
	r := s.newRequest(a, deadline, retired)
	if s.cfg.BatchWindow > 0 && s.cfg.Placement != AllCPU {
		s.enqueueBatch(a, r)
		return
	}
	s.launchSolo(a, r)
}

// newRequest creates one request of app a without dispatching it (a
// batched member parks in the accumulation window instead).
func (s *System) newRequest(a *appInstance, deadline sim.Duration, retired func(traffic.Retired)) *request {
	now := s.Eng.Now()
	track := a.track
	// Per-request trace tracks matter only when a recorder is attached;
	// skipping the format keeps the headless serving path free of
	// per-request string allocations.
	if s.rec != nil && a.requests > 0 {
		track = fmt.Sprintf("%s/r%d", a.track, a.requests)
	}
	a.requests++
	a.inflight++
	var r *request
	if n := len(s.requestPool); n > 0 {
		r = s.requestPool[n-1]
		s.requestPool = s.requestPool[:n-1]
	} else {
		r = new(request)
	}
	*r = request{track: track, start: now, retired: retired}
	if deadline > 0 {
		r.deadline = now.Add(deadline)
	}
	return r
}

// soloCarrier puts request m alone on a carrier: the walk runs on the
// member's own track, its lap tracker starting at m's admission.
func (s *System) soloCarrier(a *appInstance, m *request) *carrier {
	c := s.newCarrier(a)
	c.members = append(c.members, m)
	c.track = m.track
	c.mark = m.start
	return c
}

// launchSolo dispatches request m alone into its placement's walk.
func (s *System) launchSolo(a *appInstance, m *request) {
	c := s.soloCarrier(a, m)
	if s.cfg.Placement == AllCPU {
		c.stepCPUKernel()
		return
	}
	c.stepInput()
}

// deadlineKey is the EDF scheduling key of one deadline: the absolute
// deadline, or MaxInt64 for "no deadline" so deadline-carrying work
// always overtakes best-effort work.
func deadlineKey(deadline sim.Time) int64 {
	if deadline == 0 {
		return math.MaxInt64
	}
	return int64(deadline)
}

// defaultPriority is the SchedPriority key of apps past the
// Config.AppPriority table: after every listed app.
const defaultPriority = 1 << 20

// schedKey is the carrier's scheduling key when submitting stage k's
// kernel (rem = remAtKernel) or hop k's restructure (rem = remAtHop):
// the app's Config.AppPriority under SchedPriority, the most urgent
// member's deadline under EDF, the carrier's total station demand still
// ahead (n× rem[k]) under SRS, 0 (ignored) otherwise.
func (c *carrier) schedKey(rem []sim.Duration) int64 {
	switch c.s.cfg.Sched {
	case SchedPriority:
		if prio := c.s.cfg.AppPriority; c.a.id < len(prio) {
			return int64(prio[c.a.id])
		}
		return defaultPriority
	case SchedEDF:
		key := deadlineKey(0)
		for _, m := range c.members {
			if k := deadlineKey(m.deadline); k < key {
				key = k
			}
		}
		return key
	case SchedSRS:
		return int64(rem[c.k]) * c.n()
	}
	return 0
}

// lap closes the current contiguous segment, attributing it to report
// component p. Component time is wall-clock per carrier, not per member:
// the report's components measure resource time, which a batch spends
// once.
func (c *carrier) lap(p component) {
	now := c.s.Eng.Now()
	d := now.Sub(c.mark)
	if d > 0 {
		op := p.obsPhase()
		c.s.rec.Span(obs.Time(c.mark), obs.Duration(d), obs.TypePhase, op, 0,
			c.track, c.a.pipe.Name, op.String(), 0)
	}
	c.mark = now
	switch p {
	case compKernel:
		c.a.rep.KernelTime += d
	case compRestructure:
		c.a.rep.RestructureTime += d
	case compMovement:
		c.a.rep.MovementTime += d
	}
}

// obsDMA records a completed DMA leg: a span on the carrier's trace
// track plus a flow arrow between the source and destination device
// tracks. Call it from the transfer's completion with the leg's start
// time.
func (c *carrier) obsDMA(typ obs.Type, step uint8, from, to string, n int64, begin sim.Time) {
	s := c.s
	if s.rec == nil {
		return
	}
	now := s.Eng.Now()
	s.rec.Span(obs.Time(begin), obs.Duration(now.Sub(begin)), typ, obs.PhaseNone,
		step, c.track, c.a.pipe.Name, "", n)
	if from != to {
		s.rec.FlowPair(obs.Time(begin), obs.Time(now), typ, from, to, c.a.pipe.Name, "", n)
	}
}

// fail records the carrier's error on the System and stops the machine:
// the carrier never retires, and the drive loop reports the error after
// the engine drains.
func (c *carrier) fail(err error) {
	c.s.fail(err)
	c.live = false
}

// retire completes member m: per-member latency runs from its own
// arrival, and its outcome and recovery counters are whatever it
// accumulated (carrier-level events are charged to the first member).
// m's record goes back to the pool after hand returns, never before: a
// retired callback that admits again must not be handed m.
func (c *carrier) retire(m *request) {
	a := c.a
	a.inflight--
	a.rep.Total = c.s.Eng.Now().Sub(m.start)
	a.rep.Retries += m.retries
	a.rep.Timeouts += m.timeouts
	switch m.outcome {
	case traffic.OutcomeDegraded:
		a.rep.Degraded++
	case traffic.OutcomeAbandoned:
		a.rep.Abandoned++
	}
	m.hand()
	c.s.requestPool = append(c.s.requestPool, m)
}

// finish retires every member and returns the shell to the pool.
func (c *carrier) finish() {
	for _, m := range c.members {
		c.retire(m)
	}
	c.release()
}

// legOf resolves what a transfer phase moves at the carrier's cursor:
// its trace type and Fig. 10 step, the resolved leg, and the payload of
// the current members. A leg's members cannot change between its start
// and its arrival (peeling happens only at a DRX completion), so the
// start and the arrival resolve the same bytes.
func (c *carrier) legOf(p phase) (obs.Type, uint8, *leg, int64) {
	a, k, n := c.a, c.k, c.n()
	switch p {
	case phInputDMA:
		return obs.TypeInputDMA, 0, &a.input, n * a.pipe.InputBytes
	case phOutputDMA:
		return obs.TypeOutputDMA, 0, &a.output, n * a.pipe.OutputBytes
	case phHostInDMA, phDegradeInDMA:
		return obs.TypeHostDMA, 0, &a.hops[k].toHost, n * a.pipe.Hops[k].InBytes
	case phHostOutDMA:
		return obs.TypeHostDMA, 0, &a.hops[k].fromHost, n * a.pipe.Hops[k].OutBytes
	case phP2PInDMA:
		return obs.TypeP2PDMA, obs.StepRXDMA, &a.hops[k].in, n * a.pipe.Hops[k].InBytes
	case phP2POutDMA, phTXDMA:
		return obs.TypeP2PDMA, obs.StepP2PDMA, &a.hops[k].out, n * a.pipe.Hops[k].OutBytes
	}
	panic(fmt.Sprintf("dmxsys: phase %v moves no DMA leg", p))
}

// send starts the DMA leg of transfer phase p now, tracing its start;
// the carrier resumes in p when the last byte arrives.
func (c *carrier) send(p phase) {
	typ, step, l, bytes := c.legOf(p)
	c.s.obsInstant(c.a, typ, step, l.from, l.to, "", bytes)
	c.legBegin = c.s.Eng.Now()
	c.dma, c.xfer = p, 1
	c.fabricAttempt()
}

// fabricAttempt starts the fabric DMA of the leg in flight with
// link-fault handling: a start that fails because an injected link
// outage is in effect is re-attempted under the retry policy, and the
// carrier is abandoned once attempts run out; any other error is a hard
// flow error.
func (c *carrier) fabricAttempt() {
	s := c.s
	_, _, l, n := c.legOf(c.dma)
	c.phase = c.dma
	var t *ticket
	done := c.next
	if s.hazardous {
		t = s.ticket(c)
		done = t.fire
	}
	err := s.Fabric.TransferRoute(l.rt, n, done)
	if err == nil {
		return
	}
	if t != nil {
		// The transfer never started, so its ticket will never fire.
		t.spend()
	}
	if s.hazardous && errors.Is(err, pcie.ErrLinkDown) {
		if c.xfer < s.cfg.Retry.Attempts() {
			c.xfer++
			c.members[0].retries++
			s.obsInstant(c.a, obs.TypeRetry, 0, c.track, "", l.from+"→"+l.to, int64(c.xfer))
			c.after(s.inj.RetryBackoff(s.cfg.Retry, c.xfer), phResend)
			return
		}
		c.abandon()
		return
	}
	c.fail(fmt.Errorf("dmxsys: transfer %s→%s: %w", l.from, l.to, err))
}

// landed closes the DMA leg of the carrier's transfer phase on arrival:
// its trace span and the movement lap.
func (c *carrier) landed() {
	typ, step, l, bytes := c.legOf(c.phase)
	c.obsDMA(typ, step, l.from, l.to, bytes, c.legBegin)
	c.lap(compMovement)
}

// stepInput ships the payload host → first accelerator, then enters the
// kernel/hop chain.
func (c *carrier) stepInput() {
	a := c.a
	a.occupyLeg(&a.input, c.n()*a.pipe.InputBytes)
	c.send(phInputDMA)
}

// stepKernel enqueues stage k's kernel on its accelerator once for every
// member: the accelerator sees one launch over n× the bytes, which is
// where a batch's launch-overhead amortization comes from.
func (c *carrier) stepKernel() {
	c.attempt = 1
	c.kernelAttempt()
}

func (c *carrier) kernelAttempt() {
	s, a, k := c.s, c.a, c.k
	st := a.pipe.Stages[k]
	dev := a.accelDev[k]
	if s.hazardous {
		// An accelerator in a stall window holds the submission until
		// the window closes (the device is wedged, not the driver).
		if stall := s.inj.StallUntil(dev, s.Eng.Now()); stall > 0 {
			s.obsInstant(a, obs.TypeStall, 0, dev, "", st.Accel.Name, int64(stall))
			c.after(stall, phKernelSubmit)
			return
		}
	}
	step := uint8(0)
	if k > 0 {
		step = obs.StepNextKernel
	}
	bytes := c.n() * st.InBytes
	s.obsInstant(a, obs.TypeKernelEnqueued, step, dev, "", st.Accel.Name, bytes)
	service := st.Accel.Latency(bytes)
	a.occupyAccel(k, service)
	c.arm(st.Accel.Name, phKernelTimeout)
	a.accelSrv[k].SubmitKeyed(a.id, c.schedKey(a.remAtKernel), service, c.await(phKernel))
}

// kernelTimeout handles a stage watchdog firing on a kernel execution:
// re-attempt while the budget lasts (the stale execution's completion
// is already invalidated by the epoch bump), else abandon.
func (c *carrier) kernelTimeout() {
	s := c.s
	if c.attempt < s.cfg.Retry.Attempts() {
		c.attempt++
		c.members[0].retries++
		st := c.a.pipe.Stages[c.k]
		s.obsInstant(c.a, obs.TypeRetry, 0, c.track, "", st.Accel.Name, int64(c.attempt))
		c.after(s.inj.RetryBackoff(s.cfg.Retry, c.attempt), phKernelSubmit)
		return
	}
	c.abandon()
}

func (c *carrier) kernelDone() {
	s, a, k := c.s, c.a, c.k
	st := a.pipe.Stages[k]
	c.disarm()
	c.lap(compKernel)
	s.obsInstant(a, obs.TypeKernelDone, obs.StepKernelDone, a.accelDev[k], "", st.Accel.Name, 0)
	if k == len(a.pipe.Stages)-1 {
		c.stepOutput()
		return
	}
	c.stepHop()
}

// nextStage advances the cursor past the completed hop and fires the
// next kernel.
func (c *carrier) nextStage() {
	c.k++
	c.stepKernel()
}

// stepOutput returns the final result to the host.
func (c *carrier) stepOutput() {
	s, a := c.s, c.a
	a.occupyLeg(&a.output, c.n()*a.pipe.OutputBytes)
	c.after(s.driverDelay()+DMASetupLatency, phOutputSetup)
}

// stepCPUKernel executes stage k's kernel in software on the shared
// host channels (the AllCPU baseline; there is no device data
// movement).
func (c *carrier) stepCPUKernel() {
	s, a, k := c.s, c.a, c.k
	st := a.pipe.Stages[k]
	bytes := c.n() * st.InBytes
	// The kernel's software runtime expressed as compute work: its
	// calibrated 16-core CPU latency times the socket's ops rate.
	work := int64(st.Accel.CPULatency(bytes).Seconds() * s.cpuCompute.Capacity())
	if work < 1 {
		work = 1
	}
	s.occupyCPU(a, work, bytes)
	s.obsInstant(a, obs.TypeKernelEnqueued, 0, pcie.Root, "", st.Accel.Name, bytes)
	c.cpuJob(work, bytes, phCPUKernel)
}

func (c *carrier) cpuKernelDone() {
	s, a, k := c.s, c.a, c.k
	st := a.pipe.Stages[k]
	c.lap(compKernel)
	s.obsInstant(a, obs.TypeKernelDone, 0, pcie.Root, "", st.Accel.Name, 0)
	if k == len(a.pipe.Stages)-1 {
		c.finish()
		return
	}
	c.cpuRestructure(phCPURestructure)
}

func (c *carrier) cpuRestructured() {
	c.lap(compRestructure)
	c.k++
	c.stepCPUKernel()
}

// cpuRestructure posts hop k's restructuring as host CPU work, resuming
// in phase p once it drains: traffic and work scale with the member
// count (restructuring streams the payload; nothing amortizes).
func (c *carrier) cpuRestructure(p phase) {
	s, a := c.s, c.a
	h := a.pipe.Hops[c.k]
	ops, bytes := a.hopCPU[c.k].ops*c.n(), a.hopCPU[c.k].bytes*c.n()
	s.occupyCPU(a, ops, bytes)
	s.obsInstant(a, obs.TypeHostRestructure, 0, pcie.Root, "", h.Kernel.Name, c.n()*h.InBytes)
	c.cpuJob(ops, bytes, p)
}

// cpuJob posts host work on the two shared channels (see
// System.cpuJob) and parks the carrier in phase p, a join of two: each
// channel's drain resumes the carrier, and joined holds the phase until
// the second.
func (c *carrier) cpuJob(ops, bytes int64, p phase) {
	s := c.s
	c.join = 2
	s.cpuCompute.Start(ops, c.await(p))
	s.cpuMem.Start(bytes, c.await(p))
}

// joined counts one host channel of a CPU job down and reports whether
// it was the last.
func (c *carrier) joined() bool {
	c.join--
	return c.join == 0
}

// hopEntryDelay is the driver cost to enter hop k: a full driver
// round-trip plus DMA-descriptor programming normally, zero when the
// fused program from the previous hop still holds the DRX unit — the
// resident program chained the follower's descriptors when it loaded, so
// no interrupt is taken and no descriptor is programmed.
func (c *carrier) hopEntryDelay() sim.Duration {
	if c.hold != nil {
		return 0
	}
	return c.s.driverDelay() + DMASetupLatency
}

// stepHop executes the data motion between stage k and k+1 under the
// system's placement.
func (c *carrier) stepHop() {
	switch c.s.cfg.Placement {
	case MultiAxl, Integrated:
		c.hopHostIn()
	case Standalone, PCIeIntegrated:
		c.hopP2PIn()
	case BumpInTheWire:
		c.hopBumpIn()
	default:
		c.fail(fmt.Errorf("dmxsys: hop under %v", c.s.cfg.Placement))
	}
}

// restructured continues hop k once its payload is restructured by the
// DRX (or by a DRX retry after a transient fault): the one placement
// switch for what follows a DRX restructure.
func (c *carrier) restructured() {
	switch c.s.cfg.Placement {
	case Integrated:
		c.hopHostRestructured()
	case Standalone:
		c.hopCardRestructured()
	case PCIeIntegrated:
		c.hopSwitchRestructured()
	case BumpInTheWire:
		c.hopBumpRestructured()
	default:
		c.fail(fmt.Errorf("dmxsys: restructure under %v", c.s.cfg.Placement))
	}
}

// hopHostIn: (S1) interrupt; DMA accel → host memory.
func (c *carrier) hopHostIn() {
	a := c.a
	a.occupyLeg(&a.hops[c.k].toHost, c.n()*a.pipe.Hops[c.k].InBytes)
	c.after(c.hopEntryDelay(), phHostInSetup)
}

// hopHostArrived: (S2) restructure on the host (CPU or integrated DRX).
func (c *carrier) hopHostArrived() {
	c.landed()
	if c.s.cfg.Placement == Integrated {
		c.restructureDRX()
		return
	}
	c.cpuRestructure(phHostCPU)
}

// hopHostRestructured: (S3) DMA host → next accelerator; (S4) the next
// kernel fires. Every degraded hop rejoins the walk here.
func (c *carrier) hopHostRestructured() {
	a := c.a
	c.lap(compRestructure)
	a.occupyLeg(&a.hops[c.k].fromHost, c.n()*a.pipe.Hops[c.k].OutBytes)
	c.after(DMASetupLatency, phHostOutSetup)
}

// hopP2PIn: P2P DMA accel → the hop's DRX — the app's standalone card,
// or up into the switch-integrated unit that restructures at line rate
// (saves the DRX round trip; Sec. VII-B).
func (c *carrier) hopP2PIn() {
	a := c.a
	a.occupyLeg(&a.hops[c.k].in, c.n()*a.pipe.Hops[c.k].InBytes)
	c.after(c.hopEntryDelay(), phP2PInSetup)
}

// hopCardRestructured: P2P from the card to the next accelerator.
func (c *carrier) hopCardRestructured() {
	s, a := c.s, c.a
	c.lap(compRestructure)
	a.occupyLeg(&a.hops[c.k].out, c.n()*a.pipe.Hops[c.k].OutBytes)
	c.after(s.driverDelay()+DMASetupLatency, phP2POutSetup)
}

// hopSwitchRestructured: straight down to the peer — no driver round
// trip between the in-switch restructure and the down leg.
func (c *carrier) hopSwitchRestructured() {
	a := c.a
	c.lap(compRestructure)
	a.occupyLeg(&a.hops[c.k].out, c.n()*a.pipe.Hops[c.k].OutBytes)
	c.send(phP2POutDMA)
}

// hopBumpIn begins the Fig. 10 inline sequence: ① kernel done
// ② interrupt ③④ local move into the inline DRX's RX queue ⑤–⑦
// restructure into the TX queue ⑧ interrupt ⑨⑩ P2P DMA through the
// fabric to the peer accelerator (its own DRX is a pass-through)
// ⑪ kernel fires. Queue head/tail bookkeeping backpressures if a queue
// fills; the batch-size cap (appInstance.maxBatch, computed at build)
// guarantees a batch's scaled payload fits the queues, so queued can
// always eventually succeed.
func (c *carrier) hopBumpIn() {
	a, k := c.a, c.k
	c.rx, c.tx = a.hops[k].rx, a.hops[k].tx
	c.after(c.s.driverDelay()+DMASetupLatency, phRXAdmit)
}

// hopBumpRXAdmit: ③ the payload claims RX queue space and moves off the
// fabric into the inline DRX at the accelerator link's rate.
func (c *carrier) hopBumpRXAdmit() {
	s, a, k := c.s, c.a, c.k
	bytes := c.n() * a.pipe.Hops[k].InBytes
	if !c.queued(c.rx, bytes) {
		return
	}
	c.rxHeld = bytes
	s.obsInstant(a, obs.TypeQueueDMA, obs.StepRXDMA, a.accelDev[k], a.drxServer[k].Name(), "", bytes)
	c.legBegin = s.Eng.Now()
	s.localBytes += bytes
	link := pcie.LinkConfig{Gen: s.cfg.Gen, Lanes: AccelLanes}
	c.after(sim.BytesAt(bytes, link.Bandwidth()), phRXMove)
}

// queued reserves n bytes of bump-in-the-wire queue q for the carrier.
// When q is momentarily full it reports false and re-enters the current
// phase after a backoff (payloads far larger than 100 MB are rejected
// during pipeline validation, so waiting always terminates).
func (c *carrier) queued(q *DataQueue, n int64) bool {
	if q == nil || (n <= q.Free() && q.Enqueue(n) == nil) {
		return true
	}
	c.after(100*sim.Microsecond, c.phase)
	return false
}

func (c *carrier) hopBumpAtDRX() {
	a, k := c.a, c.k
	c.obsDMA(obs.TypeQueueDMA, obs.StepRXDMA, a.accelDev[k], a.drxServer[k].Name(),
		c.n()*a.pipe.Hops[k].InBytes, c.legBegin)
	c.lap(compMovement)
	c.restructureDRX()
}

// hopBumpRestructured: the restructured payload claims TX queue space
// before the RX slot is released.
func (c *carrier) hopBumpRestructured() {
	c.phase = phTXAdmit
	c.hopBumpTXAdmit()
}

func (c *carrier) hopBumpTXAdmit() {
	s, a, k := c.s, c.a, c.k
	bytes := c.n() * a.pipe.Hops[k].OutBytes
	if !c.queued(c.tx, bytes) {
		return
	}
	c.txHeld = bytes
	if c.rx != nil && c.rxHeld > 0 {
		// Release whatever RX share the carrier still holds (members
		// peeled from a batch took their per-request share with them).
		if err := c.rx.Dequeue(c.rxHeld); err != nil {
			c.fail(fmt.Errorf("dmxsys: %w", err))
			return
		}
		c.rxHeld = 0
	}
	c.lap(compRestructure)
	a.occupyLeg(&a.hops[k].out, bytes)
	s.obsInstant(a, obs.TypeTXReady, obs.StepTXReady, a.drxServer[k].Name(), "", "", bytes)
	c.after(s.driverDelay()+DMASetupLatency, phTXSetup)
}

func (c *carrier) hopBumpDone() {
	if c.tx != nil && c.txHeld > 0 {
		if err := c.tx.Dequeue(c.txHeld); err != nil {
			c.fail(fmt.Errorf("dmxsys: %w", err))
			return
		}
		c.txHeld = 0
	}
	c.landed()
	c.nextStage()
}

// restructureDRX queues hop k's kernel on the app's DRX unit once for
// every member, at n× the per-request service (DRX execution streams
// data; a batch buys one dispatch, not faster restructuring). Injected
// faults walk one recovery ladder:
//
//   - a unit inside an outage window degrades the hop to the CPU
//     fallback immediately (the incident is device-level; every
//     member's payload is on it);
//   - a transient restructure error is retried with backoff until the
//     attempt budget runs out, then degrades — in place for a solo
//     request, while a batch rolls the odds once per member and peels
//     the failures off to retry alone (peelTransients);
//   - a configured stage watchdog degrades a restructure that overstays
//     its deadline (e.g. parked behind a retry storm).
func (c *carrier) restructureDRX() {
	c.attempt = 1
	c.restructureAttempt()
}

func (c *carrier) restructureAttempt() {
	s, a, k := c.s, c.a, c.k
	kern := a.pipe.Hops[k].Kernel
	unit := a.drxServer[k].Name()
	if s.hazardous {
		if down, _ := s.inj.DRXDown(unit, s.Eng.Now()); down {
			c.degradeHop()
			return
		}
	}
	s.obsInstant(a, obs.TypeRestructure, obs.StepRestructure,
		unit, "", kern.Name, c.n()*a.pipe.Hops[k].InBytes)
	// Fusion and batching are mutually exclusive (Config.Validate), so
	// only solo carriers ever meet a fused hop.
	switch f := a.fusionAt(k); f.role {
	case fuseLeader:
		c.fusedLeader(f)
		return
	case fuseFollower:
		if c.hold != nil {
			c.fusedResume(f)
			return
		}
		// No resident program (the leader degraded, or a transient retry
		// released the hold): fall through to the standalone submit of
		// this hop's unfused kernel.
	}
	d := a.hopDRX[k] * sim.Duration(c.n())
	a.occupyDRX(k, d)
	c.arm(unit, phDegrade)
	a.drxServer[k].SubmitKeyed(a.id, c.schedKey(a.remAtHop), d, c.await(phDRX))
}

// drxServed completes a DRX service of hop k: the transient-fault roll
// of the recovery ladder, then the placement's continuation.
func (c *carrier) drxServed() {
	c.disarm()
	if c.s.hazardous {
		unit := c.a.drxServer[c.k].Name()
		if c.batched {
			c.peelTransients(unit)
			if len(c.members) == 0 {
				// Every member faulted and peeled; the batch is empty
				// and retires without walking further.
				c.release()
				return
			}
		} else if c.s.inj.TransientFault(unit) {
			c.retryRestructure()
			return
		}
	}
	c.restructured()
}

// fusedLeader submits the fused program's first segment and retains the
// DRX slot when it completes: the merged program stays loaded (resident
// context) while the intermediate accelerator stage runs, and the
// follower hop resumes its second segment without re-arbitrating. The
// hold arrives through a ticket, which releases a stale hold rather than
// dropping it.
func (c *carrier) fusedLeader(f hopFusion) {
	s, a, k := c.s, c.a, c.k
	a.occupyDRX(k, f.part)
	c.arm(a.drxServer[k].Name(), phDegrade)
	t := s.ticket(c)
	if t.hold == nil {
		t.hold = t.held
	}
	c.phase = phDRXHold
	a.drxServer[k].SubmitKeyedHold(a.id, c.schedKey(a.remAtHop), f.part, t.hold)
}

// leaderHeld takes delivery of a fused leader's retained slot.
func (c *carrier) leaderHeld(h *sim.Hold) {
	s := c.s
	c.disarm()
	if s.hazardous && s.inj.TransientFault(c.a.drxServer[c.k].Name()) {
		// The fused program faulted in its first half: drop residency
		// and rejoin the standard transient-retry path (the retry
		// reloads and resubmits the program as a leader again).
		h.Release()
		c.retryRestructure()
		return
	}
	c.hold = h
	c.holdAt = s.Eng.Now()
	c.restructured()
}

// fusedResume runs the fused program's second segment on the slot the
// leader hop retained. The unit was held (occupied but idle) across the
// gap; the carrier charges that residency plus the segment, which is
// exactly what the station's slot could not serve others for. A
// transient fault spends the resident context; the retry resubmits this
// hop's unfused kernel standalone.
func (c *carrier) fusedResume(f hopFusion) {
	s, a, k := c.s, c.a, c.k
	hold := c.hold
	c.hold = nil
	a.occupyDRX(k, s.Eng.Now().Sub(c.holdAt)+f.part)
	c.arm(a.drxServer[k].Name(), phDegrade)
	hold.Resume(f.part, c.await(phDRX))
}

// retryRestructure handles a transient restructure fault: re-attempt
// after backoff while the budget lasts, then fall back to the CPU path.
func (c *carrier) retryRestructure() {
	s := c.s
	if c.attempt < s.cfg.Retry.Attempts() {
		c.attempt++
		c.members[0].retries++
		s.obsInstant(c.a, obs.TypeRetry, 0, c.track, "", c.a.drxServer[c.k].Name(), int64(c.attempt))
		c.after(s.inj.RetryBackoff(s.cfg.Retry, c.attempt), phDRXSubmit)
		return
	}
	c.degradeHop()
}

// degradeHop completes hop k via CPU-mediated restructuring after its
// DRX path proved unavailable: the driver re-fetches the producer
// accelerator's still-valid output buffer over the host bridge,
// restructures in software (restructure.Run semantics — bit-identical
// to the DRX result), and ships it to the consumer. This is the
// paper's Multi-Axl baseline path grafted onto one hop: every member
// completes slower instead of failing.
func (c *carrier) degradeHop() {
	s, a, k := c.s, c.a, c.k
	h := a.pipe.Hops[k]
	for _, m := range c.members {
		if m.outcome == traffic.OutcomeClean {
			m.outcome = traffic.OutcomeDegraded
		}
	}
	c.releaseQueues()
	c.releaseHold()
	s.obsInstant(a, obs.TypeDegrade, 0, c.track, "", a.drxServer[k].Name(), c.n()*h.InBytes)
	// Time burned on the failed DRX attempts counts as restructuring.
	c.lap(compRestructure)
	if s.cfg.Placement == Integrated {
		// The hop's payload is already in host memory (hopHostIn
		// brought it there); restructure in software and rejoin the
		// normal host-mediated continuation.
		c.cpuRestructure(phHostCPU)
		return
	}
	a.occupyLeg(&a.hops[k].toHost, c.n()*h.InBytes)
	c.after(s.driverDelay()+DMASetupLatency, phDegradeInSetup)
}

// drive is the shared load driver under Run and RunLoad:
// app i's request j is admitted at i·StartStagger plus spec's offset j
// for app i, under app i's spec.DeadlineFor budget; the engine runs to
// completion, and every retirement lands in t (Run passes nil: it reads
// the per-app reports, and a tally per run would be waste). Arrivals
// are fed on demand (traffic.Spec.Feed): each app has one arrival
// pending at a time, under the seqs an up-front schedule loop would have
// used, so the pending set is in-flight work and the firing order is
// unchanged. Each app arrives through one func and retires through one
// func, so neither costs an allocation per request. The first flow
// error (or a deadlocked request train) is returned after the drain.
func (s *System) drive(spec traffic.Spec, t *traffic.Tally) error {
	remaining := spec.Requests * len(s.apps)
	for i, a := range s.apps {
		i, a := i, a
		dl := spec.DeadlineFor(i)
		retired := func(r traffic.Retired) {
			remaining--
			if t != nil {
				t.Retire(i, r, s.Eng.Now(), dl)
			}
		}
		start := s.Eng.Now().Add(sim.Duration(i) * StartStagger)
		spec.Feed(s.Eng, i, start, func() { s.admit(a, dl, retired) })
	}
	s.Eng.Run()
	if s.err != nil {
		return s.err
	}
	if remaining != 0 {
		return s.stranded(remaining)
	}
	return nil
}

// stranded is the drain diagnosis: remaining requests never retired,
// and every carrier still live in the pool is named with its app, stage
// cursor, phase, member count and track — where the walk stopped.
func (s *System) stranded(remaining int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "dmxsys: %d requests never completed (deadlocked flow)", remaining)
	sep := ": "
	for _, c := range s.carriers {
		if c.live {
			fmt.Fprintf(&b, "%sapp %s stage %d phase %v members %d track %s",
				sep, c.a.pipe.Name, c.k, c.phase, len(c.members), c.track)
			sep = "; "
		}
	}
	return errors.New(b.String())
}
