package dmxsys

import (
	"errors"
	"fmt"
	"math"

	"dmx/internal/obs"
	"dmx/internal/pcie"
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// This file implements the end-to-end request flow for every system
// configuration as an explicit state machine. Each in-flight request is
// a *request value carrying its own cursor through the pipeline (the
// stage index), its phase tracker, and its deadline; the machine
// advances through small step methods, one per protocol action:
//
//	stepInput → stepKernel → kernelDone → hop* → (k++) stepKernel → ... → stepOutput → finish
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
// timing failures) do not panic: the request records the first error on
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

// sink is the live trace emission target: the engine's current
// recorder. Sharded fleets swap each lane's recorder for a private
// capture buffer during lookahead windows, so emission sites must read
// it at emission time — s.rec stays the report-time aggregate source
// (and the "is tracing on" gate); sequentially they are one recorder.
func (s *System) sink() *obs.Recorder { return s.Eng.Obs }

// obsInstant emits one protocol instant (a Fig. 10 moment) for app a.
func (s *System) obsInstant(a *appInstance, typ obs.Type, step uint8, track, peer, name string, bytes int64) {
	s.sink().Instant(obs.Time(s.Eng.Now()), typ, step, track, peer, a.pipe.Name, name, bytes)
}

// request is one in-flight request walking its application's pipeline.
type request struct {
	s *System
	a *appInstance

	// k is the stage cursor: the index of the pipeline stage the request
	// is currently executing (or moving its output away from).
	k int

	// track is the request's trace timeline (the app track, suffixed
	// with a request ordinal under streamed execution so concurrent
	// requests never interleave spans on one track).
	track string
	// mark is the phase tracker: the start of the current contiguous
	// segment, closed by lap into one of the three report components.
	mark sim.Time

	// start is the admission instant; deadline is the absolute latency
	// budget (zero = none). RunLoad reads both when the request retires.
	start    sim.Time
	deadline sim.Time

	// legBegin is the start time of the DMA leg currently in flight
	// (legs within one request are strictly sequential).
	legBegin sim.Time
	// rx, tx are the bump-in-the-wire data queues of the hop in
	// progress; rxHeld/txHeld mirror the bytes currently reserved so a
	// degrade or abandon mid-hop can release them (a held reservation
	// would deadlock peer requests waiting on queue space).
	rx, tx         *DataQueue
	rxHeld, txHeld int64

	// Fault-handling state, all zero on the fault-free path. attempt
	// numbers the tries of the stage operation in progress; epoch
	// invalidates in-flight completions after a watchdog fires;
	// retries/timeouts accumulate for the report; outcome classifies
	// how the request retired.
	attempt  int
	epoch    int
	retries  int
	timeouts int
	outcome  traffic.Outcome
	watchdog sim.EventRef
	wdArmed  bool

	// hold is the DRX slot a fused leader hop retained (nil otherwise);
	// holdAt is the instant the hold was delivered. The follower hop
	// resumes the resident program on it, or degradation releases it.
	hold   *sim.Hold
	holdAt sim.Time

	// done retires the request (nil once failed or retired).
	done func(*request)
}

// guard wraps a completion callback with the request's liveness and
// epoch: a completion that lost a watchdog race, or that arrived after
// the request retired, is dropped. On the fault-free path the callback
// is returned untouched, so timing and allocation behavior are
// unchanged.
func (r *request) guard(f func()) func() {
	if !r.s.hazardous {
		return f
	}
	e := r.epoch
	return func() {
		if r.done != nil && r.epoch == e {
			f()
		}
	}
}

// arm starts the per-stage watchdog, when one is configured: if the
// guarded operation has not completed within Retry.StageDeadline, the
// in-flight completion is invalidated (epoch bump) and onTimeout runs.
// The stalled station keeps its slot busy — injected faults wedge
// devices, they do not recall submitted work.
func (r *request) arm(name string, onTimeout func()) {
	s := r.s
	if !s.hazardous || s.cfg.Retry.StageDeadline <= 0 {
		return
	}
	e := r.epoch
	r.watchdog = s.Eng.Schedule(s.cfg.Retry.StageDeadline, func() {
		if r.done == nil || r.epoch != e {
			return
		}
		r.epoch++
		r.wdArmed = false
		r.timeouts++
		s.obsInstant(r.a, obs.TypeTimeout, 0, r.track, "", name, 0)
		onTimeout()
	})
	r.wdArmed = true
}

// disarm cancels a pending watchdog (no-op when none is armed).
func (r *request) disarm() {
	if r.wdArmed {
		r.watchdog.Cancel()
		r.wdArmed = false
	}
}

// releaseQueues returns any bump-in-the-wire queue reservations the
// request still holds.
func (r *request) releaseQueues() {
	if r.rxHeld > 0 && r.rx != nil {
		if err := r.rx.Dequeue(r.rxHeld); err != nil {
			r.fail(fmt.Errorf("dmxsys: %w", err))
		}
		r.rxHeld = 0
	}
	if r.txHeld > 0 && r.tx != nil {
		if err := r.tx.Dequeue(r.txHeld); err != nil {
			r.fail(fmt.Errorf("dmxsys: %w", err))
		}
		r.txHeld = 0
	}
}

// releaseHold returns a fused leader's retained DRX slot (no-op when
// none is held). Every path that diverts a request off the fused flow —
// abandon, degradation — must call it, or the held slot would starve
// every other request of the unit.
func (r *request) releaseHold() {
	if r.hold != nil {
		r.hold.Release()
		r.hold = nil
	}
}

// abandon retires the request unfinished after its retry budget is
// exhausted. It still retires through done so the drive loop's
// outstanding count drains and the run completes.
func (r *request) abandon() {
	r.disarm()
	r.epoch++ // drop any completion still in flight
	r.releaseQueues()
	r.releaseHold()
	r.outcome = traffic.OutcomeAbandoned
	r.s.obsInstant(r.a, obs.TypeAbandon, 0, r.track, "", "", 0)
	r.finish()
}

// admit is the serving front door for one arrival: admission control
// first (RunLoad only), then the batching window when one is
// configured, then the solo per-request state machine. With admission
// control and batching both disabled it is startRequest, bit-for-bit.
func (s *System) admit(a *appInstance, deadline sim.Duration, done func(*request)) {
	if s.admitting && s.cfg.AdmitLimit > 0 && a.inflight >= s.cfg.AdmitLimit {
		s.obsInstant(a, obs.TypeReject, 0, a.track, "", "", int64(a.inflight))
		r := &request{s: s, a: a, track: a.track, outcome: traffic.OutcomeRejected}
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
	s.startRequest(a, deadline, done)
}

// startRequest admits one request into app a's pipeline, calling done at
// completion. deadline, when positive, is the per-request latency
// budget relative to now.
func (s *System) startRequest(a *appInstance, deadline sim.Duration, done func(*request)) {
	s.newRequest(a, deadline, done).launch()
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
	r := &request{s: s, a: a, track: track, mark: now, start: now, done: done}
	if deadline > 0 {
		r.deadline = now.Add(deadline)
	}
	return r
}

// launch dispatches the request into its placement's walk.
func (r *request) launch() {
	if r.s.cfg.Placement == AllCPU {
		r.stepCPUKernel()
		return
	}
	r.stepInput()
}

// deadlineKey is the EDF scheduling key shared by solo requests and
// batches: the absolute deadline, or MaxInt64 for "no deadline" so
// deadline-carrying work always overtakes best-effort work.
func deadlineKey(deadline sim.Time) int64 {
	if deadline == 0 {
		return math.MaxInt64
	}
	return int64(deadline)
}

// kernelKey is the request's scheduling key when submitting stage k's
// kernel: its absolute deadline under EDF, the precomputed station
// service still ahead of it under SRS, 0 (ignored) otherwise.
func (r *request) kernelKey() int64 {
	switch r.s.cfg.Sched {
	case SchedEDF:
		return deadlineKey(r.deadline)
	case SchedSRS:
		return int64(r.a.remAtKernel[r.k])
	}
	return 0
}

// hopKey is the analogous key when submitting hop k's restructuring.
func (r *request) hopKey() int64 {
	switch r.s.cfg.Sched {
	case SchedEDF:
		return deadlineKey(r.deadline)
	case SchedSRS:
		return int64(r.a.remAtHop[r.k])
	}
	return 0
}

// lap closes the current contiguous segment, attributing it to phase p.
func (r *request) lap(p phase) {
	now := r.s.Eng.Now()
	d := now.Sub(r.mark)
	if d > 0 {
		op := p.obsPhase()
		r.s.sink().Span(obs.Time(r.mark), obs.Duration(d), obs.TypePhase, op, 0,
			r.track, r.a.pipe.Name, op.String(), 0)
	}
	r.mark = now
	switch p {
	case phaseKernel:
		r.a.rep.KernelTime += d
	case phaseRestructure:
		r.a.rep.RestructureTime += d
	case phaseMovement:
		r.a.rep.MovementTime += d
	}
}

// obsDMA records a completed DMA leg: a span on the request's trace
// track plus a flow arrow between the source and destination device
// tracks. Call it from the transfer's completion callback with the
// leg's start time.
func (r *request) obsDMA(typ obs.Type, step uint8, from, to string, n int64, begin sim.Time) {
	s := r.s
	if s.rec == nil {
		return
	}
	now := s.Eng.Now()
	s.sink().Span(obs.Time(begin), obs.Duration(now.Sub(begin)), typ, obs.PhaseNone,
		step, r.track, r.a.pipe.Name, "", n)
	if from != to {
		s.sink().FlowPair(obs.Time(begin), obs.Time(now), typ, from, to, r.a.pipe.Name, "", n)
	}
}

// fail records the request's error on the System and stops the machine:
// the request never retires, and the drive loop reports the error after
// the engine drains.
func (r *request) fail(err error) {
	r.s.fail(err)
	r.done = nil
}

// finish retires the request.
func (r *request) finish() {
	a := r.a
	a.inflight--
	a.rep.Total = r.s.Eng.Now().Sub(r.start)
	a.rep.Retries += r.retries
	a.rep.Timeouts += r.timeouts
	switch r.outcome {
	case traffic.OutcomeDegraded:
		a.rep.Degraded++
	case traffic.OutcomeAbandoned:
		a.rep.Abandoned++
	}
	if done := r.done; done != nil {
		r.done = nil
		done(r)
	}
}

// transfer starts a fabric DMA of n bytes along a resolved leg with
// link-fault handling: a start that fails because an injected link
// outage is in effect is re-attempted under the retry policy, and the
// request is abandoned once attempts run out; any other error is a hard
// flow error.
func (r *request) transfer(l *leg, n int64, done func()) {
	r.fabricAttempt(l, n, r.guard(done), 1)
}

func (r *request) fabricAttempt(l *leg, n int64, done func(), attempt int) {
	s := r.s
	err := s.Fabric.TransferRoute(l.rt, n, done)
	if err == nil {
		return
	}
	if s.hazardous && errors.Is(err, pcie.ErrLinkDown) {
		if attempt < s.cfg.Retry.Attempts() {
			next := attempt + 1
			r.retries++
			s.obsInstant(r.a, obs.TypeRetry, 0, r.track, "", l.from+"→"+l.to, int64(next))
			s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, next), r.guard(func() {
				r.fabricAttempt(l, n, done, next)
			}))
			return
		}
		r.abandon()
		return
	}
	r.fail(fmt.Errorf("dmxsys: transfer %s→%s: %w", l.from, l.to, err))
}

// stepInput ships the request payload host → first accelerator, then
// enters the kernel/hop chain.
func (r *request) stepInput() {
	s, a := r.s, r.a
	a.occupyLeg(a.input, a.pipe.InputBytes)
	s.obsInstant(a, obs.TypeInputDMA, 0, a.input.from, a.input.to, "", a.pipe.InputBytes)
	r.legBegin = s.Eng.Now()
	r.transfer(a.input, a.pipe.InputBytes, r.inputArrived)
}

func (r *request) inputArrived() {
	a := r.a
	r.obsDMA(obs.TypeInputDMA, 0, a.input.from, a.input.to, a.pipe.InputBytes, r.legBegin)
	r.lap(phaseMovement)
	r.stepKernel()
}

// stepKernel enqueues stage k's kernel on its accelerator.
func (r *request) stepKernel() {
	r.attempt = 1
	r.kernelAttempt()
}

func (r *request) kernelAttempt() {
	s, a, k := r.s, r.a, r.k
	st := a.pipe.Stages[k]
	dev := a.accelDev[k]
	if s.hazardous {
		// An accelerator in a stall window holds the submission until
		// the window closes (the device is wedged, not the driver).
		if stall := s.inj.StallUntil(dev, s.Eng.Now()); stall > 0 {
			s.obsInstant(a, obs.TypeStall, 0, dev, "", st.Accel.Name, int64(stall))
			s.Eng.Schedule(stall, r.guard(r.kernelAttempt))
			return
		}
	}
	step := uint8(0)
	if k > 0 {
		step = obs.StepNextKernel
	}
	s.obsInstant(a, obs.TypeKernelEnqueued, step, dev, "", st.Accel.Name, st.InBytes)
	service := st.Accel.Latency(st.InBytes)
	a.occupyAccel(k, service)
	r.arm(st.Accel.Name, r.kernelTimeout)
	a.accelSrv[k].SubmitKeyed(a.id, r.kernelKey(), service, r.guard(r.kernelDone))
}

// kernelTimeout handles a stage watchdog firing on a kernel execution:
// re-attempt while the budget lasts (the stale execution's completion
// is already invalidated by the epoch bump), else abandon.
func (r *request) kernelTimeout() {
	s := r.s
	if r.attempt < s.cfg.Retry.Attempts() {
		r.attempt++
		r.retries++
		st := r.a.pipe.Stages[r.k]
		s.obsInstant(r.a, obs.TypeRetry, 0, r.track, "", st.Accel.Name, int64(r.attempt))
		s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, r.attempt), r.guard(r.kernelAttempt))
		return
	}
	r.abandon()
}

func (r *request) kernelDone() {
	s, a, k := r.s, r.a, r.k
	st := a.pipe.Stages[k]
	r.disarm()
	r.lap(phaseKernel)
	s.obsInstant(a, obs.TypeKernelDone, obs.StepKernelDone, a.accelDev[k], "", st.Accel.Name, 0)
	if k == len(a.pipe.Stages)-1 {
		r.stepOutput()
		return
	}
	r.stepHop()
}

// nextStage advances the cursor past the completed hop and fires the
// next kernel.
func (r *request) nextStage() {
	r.k++
	r.stepKernel()
}

// stepOutput returns the final result to the host.
func (r *request) stepOutput() {
	s, a := r.s, r.a
	a.occupyLeg(a.output, a.pipe.OutputBytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeOutputDMA, 0, a.output.from, a.output.to, "", a.pipe.OutputBytes)
		r.legBegin = s.Eng.Now()
		r.transfer(a.output, a.pipe.OutputBytes, r.outputDone)
	})
}

func (r *request) outputDone() {
	a := r.a
	r.obsDMA(obs.TypeOutputDMA, 0, a.output.from, a.output.to, a.pipe.OutputBytes, r.legBegin)
	r.lap(phaseMovement)
	r.finish()
}

// stepCPUKernel executes stage k's kernel in software on the shared
// host channels (the AllCPU baseline; there is no device data
// movement).
func (r *request) stepCPUKernel() {
	s, a, k := r.s, r.a, r.k
	st := a.pipe.Stages[k]
	// The kernel's software runtime expressed as compute work: its
	// calibrated 16-core CPU latency times the socket's ops rate.
	work := int64(st.Accel.CPULatency(st.InBytes).Seconds() * s.cpuCompute.Capacity())
	if work < 1 {
		work = 1
	}
	s.occupyCPU(a, work, st.InBytes)
	s.obsInstant(a, obs.TypeKernelEnqueued, 0, pcie.Root, "", st.Accel.Name, st.InBytes)
	s.cpuJob(work, st.InBytes, r.cpuKernelDone)
}

func (r *request) cpuKernelDone() {
	s, a, k := r.s, r.a, r.k
	st := a.pipe.Stages[k]
	r.lap(phaseKernel)
	s.obsInstant(a, obs.TypeKernelDone, 0, pcie.Root, "", st.Accel.Name, 0)
	if k == len(a.pipe.Stages)-1 {
		r.finish()
		return
	}
	h := a.pipe.Hops[k]
	ops, bytes := s.restructureWork(h.Kernel)
	s.occupyCPU(a, ops, bytes)
	s.obsInstant(a, obs.TypeHostRestructure, 0, pcie.Root, "", h.Kernel.Name, h.InBytes)
	s.cpuJob(ops, bytes, r.cpuRestructured)
}

func (r *request) cpuRestructured() {
	r.lap(phaseRestructure)
	r.k++
	r.stepCPUKernel()
}

// hopEntryDelay is the driver cost to enter hop k: a full driver
// round-trip plus DMA-descriptor programming normally, zero when the
// fused program from the previous hop still holds the DRX unit — the
// resident program chained the follower's descriptors when it loaded, so
// no interrupt is taken and no descriptor is programmed.
func (r *request) hopEntryDelay() sim.Duration {
	if r.hold != nil {
		return 0
	}
	return r.s.driverDelay() + DMASetupLatency
}

// stepHop executes the data motion between stage k and k+1 under the
// system's placement.
func (r *request) stepHop() {
	switch r.s.cfg.Placement {
	case MultiAxl, Integrated:
		r.hopHostIn()
	case Standalone:
		r.hopCardIn()
	case PCIeIntegrated:
		r.hopSwitchIn()
	case BumpInTheWire:
		r.hopBumpIn()
	default:
		r.fail(fmt.Errorf("dmxsys: hop under %v", r.s.cfg.Placement))
	}
}

// hopHostIn: (S1) interrupt; DMA accel → host memory.
func (r *request) hopHostIn() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	l := a.hops[k].toHost
	a.occupyLeg(l, h.InBytes)
	s.Eng.Schedule(r.hopEntryDelay(), func() {
		s.obsInstant(a, obs.TypeHostDMA, 0, l.from, l.to, "", h.InBytes)
		r.legBegin = s.Eng.Now()
		r.transfer(l, h.InBytes, r.hopHostArrived)
	})
}

// hopHostArrived: (S2) restructure on the host (CPU or integrated DRX).
func (r *request) hopHostArrived() {
	a, k := r.a, r.k
	l := a.hops[k].toHost
	r.obsDMA(obs.TypeHostDMA, 0, l.from, l.to, a.pipe.Hops[k].InBytes, r.legBegin)
	r.lap(phaseMovement)
	r.restructureHost(r.hopHostRestructured)
}

// hopHostRestructured: (S3) DMA host → next accelerator; (S4) the next
// kernel fires.
func (r *request) hopHostRestructured() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	l := a.hops[k].fromHost
	r.lap(phaseRestructure)
	a.occupyLeg(l, h.OutBytes)
	s.Eng.Schedule(DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeHostDMA, 0, l.from, l.to, "", h.OutBytes)
		r.legBegin = s.Eng.Now()
		r.transfer(l, h.OutBytes, r.hopHostDone)
	})
}

func (r *request) hopHostDone() {
	a, k := r.a, r.k
	l := a.hops[k].fromHost
	r.obsDMA(obs.TypeHostDMA, 0, l.from, l.to, a.pipe.Hops[k].OutBytes, r.legBegin)
	r.lap(phaseMovement)
	r.nextStage()
}

// hopCardIn: P2P DMA accel → the app's standalone DRX card.
func (r *request) hopCardIn() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	l := a.hops[k].in
	a.occupyLeg(l, h.InBytes)
	s.Eng.Schedule(r.hopEntryDelay(), func() {
		s.obsInstant(a, obs.TypeP2PDMA, obs.StepRXDMA, l.from, l.to, "", h.InBytes)
		r.legBegin = s.Eng.Now()
		r.transfer(l, h.InBytes, r.hopCardArrived)
	})
}

func (r *request) hopCardArrived() {
	a, k := r.a, r.k
	l := a.hops[k].in
	r.obsDMA(obs.TypeP2PDMA, obs.StepRXDMA, l.from, l.to, a.pipe.Hops[k].InBytes, r.legBegin)
	r.lap(phaseMovement)
	r.restructureDRX(r.hopCardRestructured)
}

// hopCardRestructured: P2P from the card to the next accelerator.
func (r *request) hopCardRestructured() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	l := a.hops[k].out
	r.lap(phaseRestructure)
	a.occupyLeg(l, h.OutBytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, "", h.OutBytes)
		r.legBegin = s.Eng.Now()
		r.transfer(l, h.OutBytes, r.hopCardDone)
	})
}

func (r *request) hopCardDone() {
	a, k := r.a, r.k
	l := a.hops[k].out
	r.obsDMA(obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, a.pipe.Hops[k].OutBytes, r.legBegin)
	r.lap(phaseMovement)
	r.nextStage()
}

// hopSwitchIn: up into the switch, restructure at line rate, down to
// the peer (saves the DRX round trip; Sec. VII-B).
func (r *request) hopSwitchIn() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	l := a.hops[k].in
	a.occupyLeg(l, h.InBytes)
	s.Eng.Schedule(r.hopEntryDelay(), func() {
		s.obsInstant(a, obs.TypeP2PDMA, obs.StepRXDMA, l.from, l.to, "", h.InBytes)
		r.legBegin = s.Eng.Now()
		r.transfer(l, h.InBytes, r.hopSwitchArrived)
	})
}

func (r *request) hopSwitchArrived() {
	a, k := r.a, r.k
	l := a.hops[k].in
	r.obsDMA(obs.TypeP2PDMA, obs.StepRXDMA, l.from, l.to, a.pipe.Hops[k].InBytes, r.legBegin)
	r.lap(phaseMovement)
	r.restructureDRX(r.hopSwitchRestructured)
}

// hopSwitchRestructured: straight down to the peer — no driver round
// trip between the in-switch restructure and the down leg.
func (r *request) hopSwitchRestructured() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	l := a.hops[k].out
	r.lap(phaseRestructure)
	a.occupyLeg(l, h.OutBytes)
	s.obsInstant(a, obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, "", h.OutBytes)
	r.legBegin = s.Eng.Now()
	r.transfer(l, h.OutBytes, r.hopSwitchDone)
}

func (r *request) hopSwitchDone() {
	a, k := r.a, r.k
	l := a.hops[k].out
	r.obsDMA(obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, a.pipe.Hops[k].OutBytes, r.legBegin)
	r.lap(phaseMovement)
	r.nextStage()
}

// hopBumpIn begins the Fig. 10 inline sequence: ① kernel done
// ② interrupt ③④ local move into the inline DRX's RX queue ⑤–⑦
// restructure into the TX queue ⑧ interrupt ⑨⑩ P2P DMA through the
// fabric to the peer accelerator (its own DRX is a pass-through)
// ⑪ kernel fires. Queue head/tail bookkeeping backpressures if a queue
// fills.
func (r *request) hopBumpIn() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	r.rx, r.tx = a.hops[k].rx, a.hops[k].tx
	from, drxTrack := a.accelDev[k], a.drxServer[k].Name()
	link := pcie.LinkConfig{Gen: s.cfg.Gen, Lanes: s.cfg.AccelLanes}
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.queueAdmit(r.rx, h.InBytes, func() {
			r.rxHeld = h.InBytes
			s.obsInstant(a, obs.TypeQueueDMA, obs.StepRXDMA, from, drxTrack, "", h.InBytes)
			r.legBegin = s.Eng.Now()
			s.localBytes += h.InBytes
			s.Eng.Schedule(sim.BytesAt(h.InBytes, link.Bandwidth()), r.guard(r.hopBumpAtDRX))
		})
	})
}

func (r *request) hopBumpAtDRX() {
	a, k := r.a, r.k
	h := a.pipe.Hops[k]
	r.obsDMA(obs.TypeQueueDMA, obs.StepRXDMA, a.accelDev[k], a.drxServer[k].Name(), h.InBytes, r.legBegin)
	r.lap(phaseMovement)
	r.restructureDRX(r.hopBumpRestructured)
}

// hopBumpRestructured: the restructured payload claims TX queue space
// before the RX slot is released.
func (r *request) hopBumpRestructured() {
	h := r.a.pipe.Hops[r.k]
	r.s.queueAdmit(r.tx, h.OutBytes, r.guard(r.hopBumpTXAdmitted))
}

func (r *request) hopBumpTXAdmitted() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	l := a.hops[k].out
	r.txHeld = h.OutBytes
	if r.rx != nil {
		if err := r.rx.Dequeue(h.InBytes); err != nil {
			r.fail(fmt.Errorf("dmxsys: %w", err))
			return
		}
		r.rxHeld = 0
	}
	r.lap(phaseRestructure)
	a.occupyLeg(l, h.OutBytes)
	s.obsInstant(a, obs.TypeTXReady, obs.StepTXReady, a.drxServer[k].Name(), "", "", h.OutBytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, "", h.OutBytes)
		r.legBegin = s.Eng.Now()
		r.transfer(l, h.OutBytes, r.hopBumpDone)
	})
}

func (r *request) hopBumpDone() {
	a, k := r.a, r.k
	h := a.pipe.Hops[k]
	l := a.hops[k].out
	if r.tx != nil {
		if err := r.tx.Dequeue(h.OutBytes); err != nil {
			r.fail(fmt.Errorf("dmxsys: %w", err))
			return
		}
		r.txHeld = 0
	}
	r.obsDMA(obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, h.OutBytes, r.legBegin)
	r.lap(phaseMovement)
	r.nextStage()
}

// restructureHost dispatches hop k's restructuring at the host: on the
// shared CPU channels for MultiAxl, on the single integrated DRX
// otherwise.
func (r *request) restructureHost(done func()) {
	s, a, k := r.s, r.a, r.k
	if s.cfg.Placement == Integrated {
		r.restructureDRX(done)
		return
	}
	h := a.pipe.Hops[k]
	s.obsInstant(a, obs.TypeHostRestructure, 0, pcie.Root, "", h.Kernel.Name, h.InBytes)
	ops, bytes := s.restructureWork(h.Kernel)
	s.occupyCPU(a, ops, bytes)
	s.cpuJob(ops, bytes, done)
}

// restructureDRX queues hop k's kernel on the app's DRX unit, handling
// injected faults: a unit inside an outage window degrades the hop to
// the CPU fallback immediately; a transient restructure error is
// retried with backoff until the attempt budget runs out, then
// degrades; a configured stage watchdog degrades a restructure that
// overstays its deadline (e.g. parked behind a retry storm).
func (r *request) restructureDRX(done func()) {
	r.attempt = 1
	r.restructureAttempt(done)
}

func (r *request) restructureAttempt(done func()) {
	s, a, k := r.s, r.a, r.k
	kern := a.pipe.Hops[k].Kernel
	unit := a.drxServer[k].Name()
	if s.hazardous {
		if down, _ := s.inj.DRXDown(unit, s.Eng.Now()); down {
			r.degradeHop()
			return
		}
	}
	s.obsInstant(a, obs.TypeRestructure, obs.StepRestructure,
		unit, "", kern.Name, a.pipe.Hops[k].InBytes)
	switch f := a.fusionAt(k); f.role {
	case fuseLeader:
		r.fusedLeader(f, done)
		return
	case fuseFollower:
		if r.hold != nil {
			r.fusedResume(f, done)
			return
		}
		// No resident program (the leader degraded, or a transient retry
		// released the hold): fall through to the standalone submit of
		// this hop's unfused kernel.
	}
	d := a.hopDRX[k]
	a.occupyDRX(k, d)
	r.arm(unit, r.degradeHop)
	a.drxServer[k].SubmitKeyed(a.id, r.hopKey(), d, r.guard(func() {
		r.disarm()
		if s.hazardous && s.inj.TransientFault(unit) {
			r.retryRestructure(done)
			return
		}
		done()
	}))
}

// fusedLeader submits the fused program's first segment and retains the
// DRX slot when it completes: the merged program stays loaded (resident
// context) while the intermediate accelerator stage runs, and the
// follower hop resumes its second segment without re-arbitrating.
func (r *request) fusedLeader(f hopFusion, done func()) {
	s, a, k := r.s, r.a, r.k
	unit := a.drxServer[k].Name()
	a.occupyDRX(k, f.part)
	r.arm(unit, r.degradeHop)
	// The hold callback bypasses guard: a guarded drop (watchdog fired,
	// request retired) would leak the retained slot and wedge the unit,
	// so staleness must release it explicitly.
	e := r.epoch
	a.drxServer[k].SubmitKeyedHold(a.id, r.hopKey(), f.part, func(h *sim.Hold) {
		if r.done == nil || r.epoch != e {
			h.Release()
			return
		}
		r.disarm()
		if s.hazardous && s.inj.TransientFault(unit) {
			// The fused program faulted in its first half: drop residency
			// and rejoin the standard transient-retry path (the retry
			// reloads and resubmits the program as a leader again).
			h.Release()
			r.retryRestructure(done)
			return
		}
		r.hold = h
		r.holdAt = s.Eng.Now()
		done()
	})
}

// fusedResume runs the fused program's second segment on the slot the
// leader hop retained. The unit was held (occupied but idle) across the
// gap; the request charges that residency plus the segment, which is
// exactly what the station's slot could not serve others for.
func (r *request) fusedResume(f hopFusion, done func()) {
	s, a, k := r.s, r.a, r.k
	unit := a.drxServer[k].Name()
	hold := r.hold
	r.hold = nil
	a.occupyDRX(k, s.Eng.Now().Sub(r.holdAt)+f.part)
	r.arm(unit, r.degradeHop)
	hold.Resume(f.part, r.guard(func() {
		r.disarm()
		if s.hazardous && s.inj.TransientFault(unit) {
			// The resident context is spent; the retry resubmits this
			// hop's unfused kernel standalone.
			r.retryRestructure(done)
			return
		}
		done()
	}))
}

// restructureContinuation is the step that follows hop k's successful
// DRX restructuring under the current placement — the continuation a
// request peeled out of a failing batch resumes with once its solo
// retry of the restructure succeeds.
func (r *request) restructureContinuation() func() {
	switch r.s.cfg.Placement {
	case Integrated:
		return r.hopHostRestructured
	case Standalone:
		return r.hopCardRestructured
	case PCIeIntegrated:
		return r.hopSwitchRestructured
	case BumpInTheWire:
		return r.hopBumpRestructured
	}
	return func() { r.fail(fmt.Errorf("dmxsys: restructure under %v", r.s.cfg.Placement)) }
}

// retryRestructure handles a transient restructure fault: re-attempt
// after backoff while the budget lasts, then fall back to the CPU path.
func (r *request) retryRestructure(done func()) {
	s := r.s
	if r.attempt < s.cfg.Retry.Attempts() {
		r.attempt++
		r.retries++
		s.obsInstant(r.a, obs.TypeRetry, 0, r.track, "", r.a.drxServer[r.k].Name(), int64(r.attempt))
		s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, r.attempt), r.guard(func() {
			r.restructureAttempt(done)
		}))
		return
	}
	r.degradeHop()
}

// degradeHop completes hop k via CPU-mediated restructuring after its
// DRX path proved unavailable: the driver re-fetches the producer
// accelerator's still-valid output buffer over the host bridge,
// restructures in software (restructure.Run semantics — bit-identical
// to the DRX result), and ships it to the consumer. This is the
// paper's Multi-Axl baseline path grafted onto one hop: the request
// completes slower instead of failing.
func (r *request) degradeHop() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	if r.outcome == traffic.OutcomeClean {
		r.outcome = traffic.OutcomeDegraded
	}
	r.releaseQueues()
	r.releaseHold()
	s.obsInstant(a, obs.TypeDegrade, 0, r.track, "", a.drxServer[k].Name(), h.InBytes)
	// Time burned on the failed DRX attempts counts as restructuring.
	r.lap(phaseRestructure)
	if s.cfg.Placement == Integrated {
		// The hop's payload is already in host memory (hopHostIn
		// brought it there); restructure in software and rejoin the
		// normal host-mediated continuation.
		ops, bytes := s.restructureWork(h.Kernel)
		s.occupyCPU(a, ops, bytes)
		s.obsInstant(a, obs.TypeHostRestructure, 0, pcie.Root, "", h.Kernel.Name, h.InBytes)
		s.cpuJob(ops, bytes, r.guard(r.hopHostRestructured))
		return
	}
	l := a.hops[k].toHost
	a.occupyLeg(l, h.InBytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, r.guard(func() {
		s.obsInstant(a, obs.TypeHostDMA, 0, l.from, l.to, "", h.InBytes)
		r.legBegin = s.Eng.Now()
		r.transfer(l, h.InBytes, r.degradeAtHost)
	}))
}

func (r *request) degradeAtHost() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	l := a.hops[k].toHost
	r.obsDMA(obs.TypeHostDMA, 0, l.from, l.to, h.InBytes, r.legBegin)
	r.lap(phaseMovement)
	ops, bytes := s.restructureWork(h.Kernel)
	s.occupyCPU(a, ops, bytes)
	s.obsInstant(a, obs.TypeHostRestructure, 0, pcie.Root, "", h.Kernel.Name, h.InBytes)
	s.cpuJob(ops, bytes, r.guard(r.degradeRestructured))
}

func (r *request) degradeRestructured() {
	s, a, k := r.s, r.a, r.k
	h := a.pipe.Hops[k]
	l := a.hops[k].fromHost
	r.lap(phaseRestructure)
	a.occupyLeg(l, h.OutBytes)
	s.Eng.Schedule(DMASetupLatency, r.guard(func() {
		s.obsInstant(a, obs.TypeHostDMA, 0, l.from, l.to, "", h.OutBytes)
		r.legBegin = s.Eng.Now()
		r.transfer(l, h.OutBytes, r.degradeDone)
	}))
}

func (r *request) degradeDone() {
	a, k := r.a, r.k
	l := a.hops[k].fromHost
	r.obsDMA(obs.TypeHostDMA, 0, l.from, l.to, a.pipe.Hops[k].OutBytes, r.legBegin)
	r.lap(phaseMovement)
	r.nextStage()
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
		return fmt.Errorf("dmxsys: %d requests never completed (deadlocked flow)", remaining)
	}
	return nil
}
