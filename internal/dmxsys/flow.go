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
// stage index), phase tracker, fault state and queue reservations move
// payloads, CPU work and DRX service scaled by n. An unbatched request is
// a carrier of one; a closed batch (batch.go) is a carrier of several.
// The machine advances through small step methods, one per protocol
// action:
//
//	stepInput → stepKernel → kernelDone → hop* → (k++) stepKernel → ... → stepOutput → retire
//
// with a placement-specific hop sequence between kernels and a pure-CPU
// chain (stepCPUKernel/cpuKernelDone/cpuRestructured) for the AllCPU
// baseline. Run, RunStream, and RunLoad are thin front-ends over the
// same machine: they differ only in the arrival offsets they feed the
// shared drive loop.
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
// from Run/RunStream/RunLoad after the engine drains.

// phase tags attribute elapsed time in the app report.
type phase int

const (
	phaseKernel phase = iota
	phaseRestructure
	phaseMovement
)

// obsPhase maps the report phase onto the obs taxonomy.
func (p phase) obsPhase() obs.Phase {
	switch p {
	case phaseKernel:
		return obs.PhaseKernel
	case phaseRestructure:
		return obs.PhaseRestructure
	}
	return obs.PhaseMovement
}

// obsInstant emits one protocol instant (a Fig. 10 moment) for app a.
func (s *System) obsInstant(a *appInstance, typ obs.Type, step uint8, track, peer, name string, bytes int64) {
	s.rec.Instant(obs.Time(s.Eng.Now()), typ, step, track, peer, a.pipe.Name, name, bytes)
}

// request is one admitted request: only what belongs to it alone. The
// walk itself — cursor, phase tracker, fault and queue state — lives on
// the carrier that moves it.
type request struct {
	// start is the admission instant; deadline is the absolute latency
	// budget (zero = none). RunLoad reads both when the request retires.
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

	// done retires the request (nil once retired).
	done func(*request)
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

	// track is the carrier's trace timeline: its member's own track for
	// a solo request, a batch track otherwise. mark is the phase
	// tracker: the start of the current contiguous segment, closed by
	// lap into one of the three report components.
	track string
	mark  sim.Time

	// legBegin is the start time of the DMA leg currently in flight
	// (legs within one walk are strictly sequential).
	legBegin sim.Time
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
	attempt  int
	epoch    int
	live     bool
	watchdog sim.EventRef
	wdArmed  bool

	// hold is the DRX slot a fused leader hop retained (nil otherwise);
	// holdAt is the instant the hold was delivered. The follower hop
	// resumes the resident program on it, or degradation releases it.
	hold   *sim.Hold
	holdAt sim.Time
}

// n is the live member count.
func (c *carrier) n() int64 { return int64(len(c.members)) }

// newCarrier takes a recycled carrier shell from the pool (or allocates
// one the first time, registering it for the drain diagnosis). A pooled
// shell comes back dead, so stale completions from its previous life
// drop; revive it here, keeping the epoch — which release bumped past
// every guard captured before — monotone across lives.
func (s *System) newCarrier(a *appInstance) *carrier {
	var c *carrier
	if n := len(s.carrierPool); n > 0 {
		c = s.carrierPool[n-1]
		s.carrierPool = s.carrierPool[:n-1]
	} else {
		c = &carrier{}
		s.carriers = append(s.carriers, c)
	}
	c.s, c.a = s, a
	c.live = true
	return c
}

// release retires the carrier shell back to the pool: dead until
// newCarrier revives it, and the epoch advanced past every closure
// captured in this life, so a stale guarded callback (say an abandoned
// carrier's kernel job still queued in a sim.Server) can never match the
// shell's next incarnation.
func (c *carrier) release() {
	s := c.s
	members := c.members[:0]
	e := c.epoch + 1
	*c = carrier{members: members, epoch: e}
	s.carrierPool = append(s.carrierPool, c)
}

// guard wraps a completion callback with the carrier's liveness and
// epoch: a completion that lost a watchdog race, or that arrived after
// the carrier retired, is dropped. On the fault-free path the callback
// is returned untouched, so timing and allocation behavior are
// unchanged.
func (c *carrier) guard(f func()) func() {
	if !c.s.hazardous {
		return f
	}
	e := c.epoch
	return func() {
		if c.live && c.epoch == e {
			f()
		}
	}
}

// arm starts the per-stage watchdog, when one is configured: if the
// guarded operation has not completed within Retry.StageDeadline, the
// in-flight completion is invalidated (epoch bump) and onTimeout runs.
// The timeout is charged to the first member. The stalled station keeps
// its slot busy — injected faults wedge devices, they do not recall
// submitted work.
func (c *carrier) arm(name string, onTimeout func()) {
	s := c.s
	if !s.hazardous || s.cfg.Retry.StageDeadline <= 0 {
		return
	}
	e := c.epoch
	c.watchdog = s.Eng.Schedule(s.cfg.Retry.StageDeadline, func() {
		if !c.live || c.epoch != e {
			return
		}
		c.epoch++
		c.wdArmed = false
		c.members[0].timeouts++
		s.obsInstant(c.a, obs.TypeTimeout, 0, c.track, "", name, 0)
		onTimeout()
	})
	c.wdArmed = true
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
// retire through done so the drive loop's outstanding count drains and
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
// first (RunLoad only), then the batching window when one is
// configured, then a carrier of one. deadline, when positive, is the
// per-request latency budget relative to now; done retires the request.
func (s *System) admit(a *appInstance, deadline sim.Duration, done func(*request)) {
	if s.admitting && s.cfg.AdmitLimit > 0 && a.inflight >= s.cfg.AdmitLimit {
		s.obsInstant(a, obs.TypeReject, 0, a.track, "", "", int64(a.inflight))
		r := &request{track: a.track, outcome: traffic.OutcomeRejected}
		// The request never executes: retire it through done directly so
		// the drive loop's outstanding count drains, without touching
		// a.requests (occupancy and report totals cover executed
		// requests only).
		done(r)
		return
	}
	if s.cfg.BatchWindow > 0 && s.cfg.Placement != AllCPU {
		s.enqueueBatch(a, deadline, done)
		return
	}
	s.launchSolo(a, s.newRequest(a, deadline, done))
}

// newRequest creates one request of app a without dispatching it (a
// batched member parks in the accumulation window instead).
func (s *System) newRequest(a *appInstance, deadline sim.Duration, done func(*request)) *request {
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
	r := &request{track: track, start: now, done: done}
	if deadline > 0 {
		r.deadline = now.Add(deadline)
	}
	return r
}

// soloCarrier puts request m alone on a carrier: the walk runs on the
// member's own track, its phase tracker starting at m's admission.
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

// schedKey is the carrier's scheduling key when submitting stage k's
// kernel (rem = remAtKernel) or hop k's restructure (rem = remAtHop):
// the most urgent member's deadline under EDF, the carrier's total
// station demand still ahead (n× rem[k]) under SRS, 0 (ignored)
// otherwise.
func (c *carrier) schedKey(rem []sim.Duration) int64 {
	switch c.s.cfg.Sched {
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

// lap closes the current contiguous segment, attributing it to phase p.
// Phase time is wall-clock per carrier, not per member: the report's
// phase components measure resource time, which a batch spends once.
func (c *carrier) lap(p phase) {
	now := c.s.Eng.Now()
	d := now.Sub(c.mark)
	if d > 0 {
		op := p.obsPhase()
		c.s.rec.Span(obs.Time(c.mark), obs.Duration(d), obs.TypePhase, op, 0,
			c.track, c.a.pipe.Name, op.String(), 0)
	}
	c.mark = now
	switch p {
	case phaseKernel:
		c.a.rep.KernelTime += d
	case phaseRestructure:
		c.a.rep.RestructureTime += d
	case phaseMovement:
		c.a.rep.MovementTime += d
	}
}

// obsDMA records a completed DMA leg: a span on the carrier's trace
// track plus a flow arrow between the source and destination device
// tracks. Call it from the transfer's completion callback with the
// leg's start time.
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
	if done := m.done; done != nil {
		m.done = nil
		done(m)
	}
}

// finish retires every member and returns the shell to the pool.
func (c *carrier) finish() {
	for _, m := range c.members {
		c.retire(m)
	}
	c.release()
}

// transfer starts a fabric DMA of n bytes along a resolved leg with
// link-fault handling: a start that fails because an injected link
// outage is in effect is re-attempted under the retry policy, and the
// carrier is abandoned once attempts run out; any other error is a hard
// flow error.
func (c *carrier) transfer(l *leg, n int64, done func()) {
	c.fabricAttempt(l, n, c.guard(done), 1)
}

func (c *carrier) fabricAttempt(l *leg, n int64, done func(), attempt int) {
	s := c.s
	err := s.Fabric.TransferRoute(l.rt, n, done)
	if err == nil {
		return
	}
	if s.hazardous && errors.Is(err, pcie.ErrLinkDown) {
		if attempt < s.cfg.Retry.Attempts() {
			next := attempt + 1
			c.members[0].retries++
			s.obsInstant(c.a, obs.TypeRetry, 0, c.track, "", l.from+"→"+l.to, int64(next))
			s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, next), c.guard(func() {
				c.fabricAttempt(l, n, done, next)
			}))
			return
		}
		c.abandon()
		return
	}
	c.fail(fmt.Errorf("dmxsys: transfer %s→%s: %w", l.from, l.to, err))
}

// send starts one DMA leg of bytes along l now, tracing its start and
// continuing with next on arrival.
func (c *carrier) send(typ obs.Type, step uint8, l *leg, bytes int64, next func()) {
	c.s.obsInstant(c.a, typ, step, l.from, l.to, "", bytes)
	c.legBegin = c.s.Eng.Now()
	c.transfer(l, bytes, next)
}

// landed closes a DMA leg along l on arrival: its trace span and the
// movement lap.
func (c *carrier) landed(typ obs.Type, step uint8, l *leg, bytes int64) {
	c.obsDMA(typ, step, l.from, l.to, bytes, c.legBegin)
	c.lap(phaseMovement)
}

// stepInput ships the payload host → first accelerator, then enters the
// kernel/hop chain.
func (c *carrier) stepInput() {
	a := c.a
	bytes := c.n() * a.pipe.InputBytes
	a.occupyLeg(a.input, bytes)
	c.send(obs.TypeInputDMA, 0, a.input, bytes, c.inputArrived)
}

func (c *carrier) inputArrived() {
	a := c.a
	c.landed(obs.TypeInputDMA, 0, a.input, c.n()*a.pipe.InputBytes)
	c.stepKernel()
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
			s.Eng.Schedule(stall, c.guard(c.kernelAttempt))
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
	c.arm(st.Accel.Name, c.kernelTimeout)
	a.accelSrv[k].SubmitKeyed(a.id, c.schedKey(a.remAtKernel), service, c.guard(c.kernelDone))
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
		s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, c.attempt), c.guard(c.kernelAttempt))
		return
	}
	c.abandon()
}

func (c *carrier) kernelDone() {
	s, a, k := c.s, c.a, c.k
	st := a.pipe.Stages[k]
	c.disarm()
	c.lap(phaseKernel)
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
	bytes := c.n() * a.pipe.OutputBytes
	a.occupyLeg(a.output, bytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		c.send(obs.TypeOutputDMA, 0, a.output, bytes, c.outputDone)
	})
}

func (c *carrier) outputDone() {
	a := c.a
	c.landed(obs.TypeOutputDMA, 0, a.output, c.n()*a.pipe.OutputBytes)
	c.finish()
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
	s.cpuJob(work, bytes, c.cpuKernelDone)
}

func (c *carrier) cpuKernelDone() {
	s, a, k := c.s, c.a, c.k
	st := a.pipe.Stages[k]
	c.lap(phaseKernel)
	s.obsInstant(a, obs.TypeKernelDone, 0, pcie.Root, "", st.Accel.Name, 0)
	if k == len(a.pipe.Stages)-1 {
		c.finish()
		return
	}
	c.cpuRestructure(c.cpuRestructured)
}

func (c *carrier) cpuRestructured() {
	c.lap(phaseRestructure)
	c.k++
	c.stepCPUKernel()
}

// cpuRestructure posts hop k's restructuring as host CPU work: traffic
// and work scale with the member count (restructuring streams the
// payload; nothing amortizes).
func (c *carrier) cpuRestructure(done func()) {
	s, a := c.s, c.a
	h := a.pipe.Hops[c.k]
	ops, bytes := s.restructureWork(h.Kernel)
	ops *= c.n()
	bytes *= c.n()
	s.occupyCPU(a, ops, bytes)
	s.obsInstant(a, obs.TypeHostRestructure, 0, pcie.Root, "", h.Kernel.Name, c.n()*h.InBytes)
	s.cpuJob(ops, bytes, done)
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

// restructured continues hop k once its payload is restructured — by the
// DRX, the host CPU, or a DRX retry after a transient fault: the one
// placement switch for what follows a restructure.
func (c *carrier) restructured() {
	switch c.s.cfg.Placement {
	case MultiAxl, Integrated:
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
	l := a.hops[c.k].toHost
	bytes := c.n() * a.pipe.Hops[c.k].InBytes
	a.occupyLeg(l, bytes)
	c.s.Eng.Schedule(c.hopEntryDelay(), func() {
		c.send(obs.TypeHostDMA, 0, l, bytes, c.hopHostArrived)
	})
}

// hopHostArrived: (S2) restructure on the host (CPU or integrated DRX).
func (c *carrier) hopHostArrived() {
	a, k := c.a, c.k
	c.landed(obs.TypeHostDMA, 0, a.hops[k].toHost, c.n()*a.pipe.Hops[k].InBytes)
	if c.s.cfg.Placement == Integrated {
		c.restructureDRX()
		return
	}
	c.cpuRestructure(c.restructured)
}

// hopHostRestructured: (S3) DMA host → next accelerator; (S4) the next
// kernel fires.
func (c *carrier) hopHostRestructured() {
	a := c.a
	l := a.hops[c.k].fromHost
	bytes := c.n() * a.pipe.Hops[c.k].OutBytes
	c.lap(phaseRestructure)
	a.occupyLeg(l, bytes)
	c.s.Eng.Schedule(DMASetupLatency, func() {
		c.send(obs.TypeHostDMA, 0, l, bytes, c.hopHostDone)
	})
}

func (c *carrier) hopHostDone() {
	a, k := c.a, c.k
	c.landed(obs.TypeHostDMA, 0, a.hops[k].fromHost, c.n()*a.pipe.Hops[k].OutBytes)
	c.nextStage()
}

// hopP2PIn: P2P DMA accel → the hop's DRX — the app's standalone card,
// or up into the switch-integrated unit that restructures at line rate
// (saves the DRX round trip; Sec. VII-B).
func (c *carrier) hopP2PIn() {
	a := c.a
	l := a.hops[c.k].in
	bytes := c.n() * a.pipe.Hops[c.k].InBytes
	a.occupyLeg(l, bytes)
	c.s.Eng.Schedule(c.hopEntryDelay(), func() {
		c.send(obs.TypeP2PDMA, obs.StepRXDMA, l, bytes, c.hopP2PArrived)
	})
}

func (c *carrier) hopP2PArrived() {
	a, k := c.a, c.k
	c.landed(obs.TypeP2PDMA, obs.StepRXDMA, a.hops[k].in, c.n()*a.pipe.Hops[k].InBytes)
	c.restructureDRX()
}

// hopCardRestructured: P2P from the card to the next accelerator.
func (c *carrier) hopCardRestructured() {
	s, a := c.s, c.a
	l := a.hops[c.k].out
	bytes := c.n() * a.pipe.Hops[c.k].OutBytes
	c.lap(phaseRestructure)
	a.occupyLeg(l, bytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		c.send(obs.TypeP2PDMA, obs.StepP2PDMA, l, bytes, c.hopP2PDone)
	})
}

// hopSwitchRestructured: straight down to the peer — no driver round
// trip between the in-switch restructure and the down leg.
func (c *carrier) hopSwitchRestructured() {
	a := c.a
	l := a.hops[c.k].out
	bytes := c.n() * a.pipe.Hops[c.k].OutBytes
	c.lap(phaseRestructure)
	a.occupyLeg(l, bytes)
	c.send(obs.TypeP2PDMA, obs.StepP2PDMA, l, bytes, c.hopP2PDone)
}

func (c *carrier) hopP2PDone() {
	a, k := c.a, c.k
	c.landed(obs.TypeP2PDMA, obs.StepP2PDMA, a.hops[k].out, c.n()*a.pipe.Hops[k].OutBytes)
	c.nextStage()
}

// hopBumpIn begins the Fig. 10 inline sequence: ① kernel done
// ② interrupt ③④ local move into the inline DRX's RX queue ⑤–⑦
// restructure into the TX queue ⑧ interrupt ⑨⑩ P2P DMA through the
// fabric to the peer accelerator (its own DRX is a pass-through)
// ⑪ kernel fires. Queue head/tail bookkeeping backpressures if a queue
// fills; the batch-size cap (appInstance.maxBatch, computed at build)
// guarantees a batch's scaled payload fits the queues, so queueAdmit
// can always eventually succeed.
func (c *carrier) hopBumpIn() {
	s, a, k := c.s, c.a, c.k
	c.rx, c.tx = a.hops[k].rx, a.hops[k].tx
	from, drxTrack := a.accelDev[k], a.drxServer[k].Name()
	link := pcie.LinkConfig{Gen: s.cfg.Gen, Lanes: s.cfg.AccelLanes}
	bytes := c.n() * a.pipe.Hops[k].InBytes
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.queueAdmit(c.rx, bytes, func() {
			c.rxHeld = bytes
			s.obsInstant(a, obs.TypeQueueDMA, obs.StepRXDMA, from, drxTrack, "", bytes)
			c.legBegin = s.Eng.Now()
			s.localBytes += bytes
			s.Eng.Schedule(sim.BytesAt(bytes, link.Bandwidth()), c.guard(c.hopBumpAtDRX))
		})
	})
}

func (c *carrier) hopBumpAtDRX() {
	a, k := c.a, c.k
	c.obsDMA(obs.TypeQueueDMA, obs.StepRXDMA, a.accelDev[k], a.drxServer[k].Name(),
		c.n()*a.pipe.Hops[k].InBytes, c.legBegin)
	c.lap(phaseMovement)
	c.restructureDRX()
}

// hopBumpRestructured: the restructured payload claims TX queue space
// before the RX slot is released.
func (c *carrier) hopBumpRestructured() {
	h := c.a.pipe.Hops[c.k]
	c.s.queueAdmit(c.tx, c.n()*h.OutBytes, c.guard(c.hopBumpTXAdmitted))
}

func (c *carrier) hopBumpTXAdmitted() {
	s, a, k := c.s, c.a, c.k
	l := a.hops[k].out
	bytes := c.n() * a.pipe.Hops[k].OutBytes
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
	c.lap(phaseRestructure)
	a.occupyLeg(l, bytes)
	s.obsInstant(a, obs.TypeTXReady, obs.StepTXReady, a.drxServer[k].Name(), "", "", bytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		c.send(obs.TypeP2PDMA, obs.StepP2PDMA, l, bytes, c.hopBumpDone)
	})
}

func (c *carrier) hopBumpDone() {
	a, k := c.a, c.k
	if c.tx != nil && c.txHeld > 0 {
		if err := c.tx.Dequeue(c.txHeld); err != nil {
			c.fail(fmt.Errorf("dmxsys: %w", err))
			return
		}
		c.txHeld = 0
	}
	c.landed(obs.TypeP2PDMA, obs.StepP2PDMA, a.hops[k].out, c.n()*a.pipe.Hops[k].OutBytes)
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
	c.arm(unit, c.degradeHop)
	a.drxServer[k].SubmitKeyed(a.id, c.schedKey(a.remAtHop), d, c.guard(c.drxServed))
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
// follower hop resumes its second segment without re-arbitrating.
func (c *carrier) fusedLeader(f hopFusion) {
	s, a, k := c.s, c.a, c.k
	unit := a.drxServer[k].Name()
	a.occupyDRX(k, f.part)
	c.arm(unit, c.degradeHop)
	// The hold callback bypasses guard: a guarded drop (watchdog fired,
	// carrier retired) would leak the retained slot and wedge the unit,
	// so staleness must release it explicitly.
	e := c.epoch
	a.drxServer[k].SubmitKeyedHold(a.id, c.schedKey(a.remAtHop), f.part, func(h *sim.Hold) {
		if !c.live || c.epoch != e {
			h.Release()
			return
		}
		c.disarm()
		if s.hazardous && s.inj.TransientFault(unit) {
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
	})
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
	c.arm(a.drxServer[k].Name(), c.degradeHop)
	hold.Resume(f.part, c.guard(c.drxServed))
}

// retryRestructure handles a transient restructure fault: re-attempt
// after backoff while the budget lasts, then fall back to the CPU path.
func (c *carrier) retryRestructure() {
	s := c.s
	if c.attempt < s.cfg.Retry.Attempts() {
		c.attempt++
		c.members[0].retries++
		s.obsInstant(c.a, obs.TypeRetry, 0, c.track, "", c.a.drxServer[c.k].Name(), int64(c.attempt))
		s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, c.attempt), c.guard(c.restructureAttempt))
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
	c.lap(phaseRestructure)
	if s.cfg.Placement == Integrated {
		// The hop's payload is already in host memory (hopHostIn
		// brought it there); restructure in software and rejoin the
		// normal host-mediated continuation.
		c.cpuRestructure(c.guard(c.hopHostRestructured))
		return
	}
	l := a.hops[k].toHost
	bytes := c.n() * h.InBytes
	a.occupyLeg(l, bytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, c.guard(func() {
		c.send(obs.TypeHostDMA, 0, l, bytes, c.degradeAtHost)
	}))
}

func (c *carrier) degradeAtHost() {
	a, k := c.a, c.k
	c.landed(obs.TypeHostDMA, 0, a.hops[k].toHost, c.n()*a.pipe.Hops[k].InBytes)
	c.cpuRestructure(c.guard(c.degradeRestructured))
}

func (c *carrier) degradeRestructured() {
	a := c.a
	l := a.hops[c.k].fromHost
	bytes := c.n() * a.pipe.Hops[c.k].OutBytes
	c.lap(phaseRestructure)
	a.occupyLeg(l, bytes)
	c.s.Eng.Schedule(DMASetupLatency, c.guard(func() {
		c.send(obs.TypeHostDMA, 0, l, bytes, c.hopHostDone)
	}))
}

// drive is the shared load driver under Run, RunStream, and RunLoad:
// app i's request j is admitted at i·StartStagger + offsets(i)[j], the
// engine runs to completion, and every retirement invokes onDone.
// deadline is app i's per-request latency budget (nil = none). The
// first flow error (or a deadlocked request train) is returned after
// the drain.
func (s *System) drive(offsets func(app int) []sim.Duration, deadline func(app int) sim.Duration, onDone func(app, req int, r *request)) error {
	remaining := 0
	for i, a := range s.apps {
		i, a := i, a
		start := sim.Duration(i) * s.cfg.StartStagger
		dl := sim.Duration(0)
		if deadline != nil {
			dl = deadline(i)
		}
		for j, off := range offsets(i) {
			j := j
			remaining++
			s.Eng.Schedule(start+off, func() {
				s.admit(a, dl, func(r *request) {
					remaining--
					onDone(i, j, r)
				})
			})
		}
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
// cursor, member count and track — where the walk stopped.
func (s *System) stranded(remaining int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "dmxsys: %d requests never completed (deadlocked flow)", remaining)
	sep := ": "
	for _, c := range s.carriers {
		if c.live {
			fmt.Fprintf(&b, "%sapp %s stage %d members %d track %s", sep, c.a.pipe.Name, c.k, len(c.members), c.track)
			sep = "; "
		}
	}
	return errors.New(b.String())
}
