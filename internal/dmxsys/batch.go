package dmxsys

import (
	"errors"
	"fmt"

	"dmx/internal/obs"
	"dmx/internal/pcie"
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// Continuous batching. With Config.BatchWindow set, arrivals of one
// application accumulate in a deterministic window (opened by the first
// pending request, flushed BatchWindow later or when BatchMax fills)
// and walk the pipeline as a single batch: one driver round trip, one
// DMA descriptor, and one kernel/DRX dispatch per station, with
// payloads scaled by the batch size. Requests of one app always share a
// pipeline and placement, so app identity is the compatibility key.
//
// What amortizes and what does not follows the hardware model:
// accelerator kernels pay their launch overhead once per dispatch
// (accel.Spec.Latency is concave in bytes), and each leg pays one
// interrupt/poll plus one DMA-descriptor setup instead of one per
// request. DRX restructuring and CPU fallback work stream the payload,
// so a batch costs n× their per-request service — coalescing wins
// nothing there, and link serialization is byte-proportional either
// way. Occupancy accounting charges the batch totals, so the capacity
// bound sees exactly the per-request amortization.
//
// Completions split back out per member: each member's latency runs
// from its own arrival (so early members pay the residual window as
// queueing delay), and failure handling stays per-request — a member
// whose restructure rolls a transient fault peels out of the batch and
// retries alone on the PR 5 recovery ladder, while its batchmates
// continue unharmed. Device-level incidents (a DRX outage window, a
// dead link after retries) degrade or abandon the batch as a whole,
// because every member's payload sits on the same hardware.
//
// The walk below mirrors flow.go step for step at n× payload; batch
// shells recycle through System.batchPool, so steady-state
// accumulation allocates only the requests themselves.

// batch is one coalesced group of requests walking the pipeline as a
// unit.
type batch struct {
	s *System
	a *appInstance

	// members are the live members in arrival order. Members leave the
	// slice by peeling (solo retry) or when the batch retires.
	members []*request

	// k is the stage cursor, as in request.
	k int

	// track is the batch's trace timeline; mark the phase tracker;
	// legBegin the start of the DMA leg in flight.
	track    string
	mark     sim.Time
	legBegin sim.Time

	// rx, tx mirror request's bump-in-the-wire queue reservations, at
	// batch scale.
	rx, tx         *DataQueue
	rxHeld, txHeld int64

	// Fault-handling state, mirroring request: attempt numbers the
	// tries of the stage operation in progress, epoch invalidates
	// in-flight completions after a watchdog fires, dead marks a
	// retired (or failed) batch so stale completions drop.
	attempt  int
	epoch    int
	dead     bool
	watchdog sim.EventRef
	wdArmed  bool
}

// n is the live batch size.
func (b *batch) n() int64 { return int64(len(b.members)) }

// enqueueBatch parks one arrival in app a's accumulation window,
// opening the window when it is the first pending request and flushing
// early when the size cap fills.
func (s *System) enqueueBatch(a *appInstance, deadline sim.Duration, done func(*request)) {
	r := s.newRequest(a, deadline, done)
	a.pending = append(a.pending, r)
	if len(a.pending) == 1 {
		a.flushRef = s.Eng.Schedule(s.cfg.BatchWindow, a.flushFn)
		a.flushArmed = true
	}
	if max := s.batchCap(a); max > 0 && len(a.pending) >= max {
		if a.flushArmed {
			a.flushRef.Cancel()
			a.flushArmed = false
		}
		s.flush(a)
	}
}

// batchCap is the effective batch-size cap for app a: the configured
// BatchMax tightened by the placement's queue-capacity ceiling
// (appInstance.maxBatch, nonzero only under bump-in-the-wire). Zero
// means uncapped.
func (s *System) batchCap(a *appInstance) int {
	max := s.cfg.BatchMax
	if a.maxBatch > 0 && (max == 0 || a.maxBatch < max) {
		max = a.maxBatch
	}
	return max
}

// flush closes app a's window: the pending requests coalesce into one
// batch (or several consecutive ones when the size cap splits them) and
// dispatch immediately.
func (s *System) flush(a *appInstance) {
	pending := a.pending
	max := s.batchCap(a)
	for len(pending) > 0 {
		n := len(pending)
		if max > 0 && n > max {
			n = max
		}
		s.dispatchBatch(a, pending[:n])
		pending = pending[n:]
	}
	a.pending = a.pending[:0]
}

// dispatchBatch launches one closed batch. A singleton gains nothing
// from coalescing (its "batch" would time identically), so it takes the
// solo state machine — which also keeps the window=0 and window>0
// low-load paths on the same pinned code.
func (s *System) dispatchBatch(a *appInstance, members []*request) {
	if len(members) == 1 {
		members[0].launch()
		return
	}
	b := s.newBatch(a)
	b.members = append(b.members, members...)
	b.mark = s.Eng.Now()
	b.track = a.track
	if s.rec != nil {
		b.track = fmt.Sprintf("%s/b%d", a.track, a.nbatches)
	}
	a.nbatches++
	a.batchedReqs += len(members)
	s.obsInstant(a, obs.TypeBatch, 0, b.track, "", "", b.n())
	b.stepInput()
}

// newBatch takes a recycled batch shell from the pool (or allocates the
// first time). A pooled shell comes back dead (so stale completions
// from its previous life drop); revive it here, keeping the epoch —
// which release bumped past every guard captured before — monotone
// across lives.
func (s *System) newBatch(a *appInstance) *batch {
	var b *batch
	if n := len(s.batchPool); n > 0 {
		b = s.batchPool[n-1]
		s.batchPool = s.batchPool[:n-1]
	} else {
		b = &batch{}
	}
	b.s, b.a = s, a
	b.dead = false
	return b
}

// release retires the batch shell back to the pool: dead until newBatch
// revives it, and the epoch advanced past every closure captured in
// this life, so a stale guarded callback (say an abandoned batch's
// kernel job still queued in a sim.Server) can never match the shell's
// next incarnation.
func (b *batch) release() {
	s := b.s
	members := b.members[:0]
	e := b.epoch + 1
	*b = batch{members: members, epoch: e, dead: true}
	s.batchPool = append(s.batchPool, b)
}

// guard wraps a completion callback with the batch's liveness and
// epoch, mirroring request.guard. Untouched on the fault-free path.
func (b *batch) guard(f func()) func() {
	if !b.s.hazardous {
		return f
	}
	e := b.epoch
	return func() {
		if !b.dead && b.epoch == e {
			f()
		}
	}
}

// arm starts the per-stage watchdog for the batch's in-flight
// operation; timeouts are accounted to the batch leader.
func (b *batch) arm(name string, onTimeout func()) {
	s := b.s
	if !s.hazardous || s.cfg.Retry.StageDeadline <= 0 {
		return
	}
	e := b.epoch
	b.watchdog = s.Eng.Schedule(s.cfg.Retry.StageDeadline, func() {
		if b.dead || b.epoch != e {
			return
		}
		b.epoch++
		b.wdArmed = false
		b.members[0].timeouts++
		s.obsInstant(b.a, obs.TypeTimeout, 0, b.track, "", name, 0)
		onTimeout()
	})
	b.wdArmed = true
}

// disarm cancels a pending watchdog.
func (b *batch) disarm() {
	if b.wdArmed {
		b.watchdog.Cancel()
		b.wdArmed = false
	}
}

// fail records a flow error and freezes the batch (the run surfaces the
// error after the drain, exactly like a solo request failure).
func (b *batch) fail(err error) {
	b.s.fail(err)
	b.dead = true
}

// releaseQueues returns the batch's bump-in-the-wire reservations.
func (b *batch) releaseQueues() {
	if b.rxHeld > 0 && b.rx != nil {
		if err := b.rx.Dequeue(b.rxHeld); err != nil {
			b.fail(fmt.Errorf("dmxsys: %w", err))
		}
		b.rxHeld = 0
	}
	if b.txHeld > 0 && b.tx != nil {
		if err := b.tx.Dequeue(b.txHeld); err != nil {
			b.fail(fmt.Errorf("dmxsys: %w", err))
		}
		b.txHeld = 0
	}
}

// abandon retires every member unfinished (a dead link after retries, a
// kernel watchdog out of budget): the hardware incident is shared, so
// the whole batch is.
func (b *batch) abandon() {
	b.disarm()
	b.epoch++
	b.releaseQueues()
	s, a := b.s, b.a
	for _, m := range b.members {
		m.outcome = traffic.OutcomeAbandoned
		s.obsInstant(a, obs.TypeAbandon, 0, m.track, "", "", 0)
		m.finish()
	}
	b.members = b.members[:0]
	b.release()
}

// lap mirrors request.lap on the batch's phase tracker. Phase time is
// wall-clock per batch (not per member): the report's phase components
// measure resource time, which the batch spends once.
func (b *batch) lap(p phase) {
	now := b.s.Eng.Now()
	d := now.Sub(b.mark)
	if d > 0 {
		op := p.obsPhase()
		b.s.sink().Span(obs.Time(b.mark), obs.Duration(d), obs.TypePhase, op, 0,
			b.track, b.a.pipe.Name, op.String(), 0)
	}
	b.mark = now
	switch p {
	case phaseKernel:
		b.a.rep.KernelTime += d
	case phaseRestructure:
		b.a.rep.RestructureTime += d
	case phaseMovement:
		b.a.rep.MovementTime += d
	}
}

// obsDMA mirrors request.obsDMA on the batch track.
func (b *batch) obsDMA(typ obs.Type, step uint8, from, to string, n int64, begin sim.Time) {
	s := b.s
	if s.rec == nil {
		return
	}
	now := s.Eng.Now()
	s.sink().Span(obs.Time(begin), obs.Duration(now.Sub(begin)), typ, obs.PhaseNone,
		step, b.track, b.a.pipe.Name, "", n)
	if from != to {
		s.sink().FlowPair(obs.Time(begin), obs.Time(now), typ, from, to, b.a.pipe.Name, "", n)
	}
}

// transfer mirrors request.transfer: link outages retry the whole batch
// under the policy, then abandon it.
func (b *batch) transfer(l *leg, n int64, done func()) {
	b.fabricAttempt(l, n, b.guard(done), 1)
}

func (b *batch) fabricAttempt(l *leg, n int64, done func(), attempt int) {
	s := b.s
	err := s.Fabric.TransferRoute(l.rt, n, done)
	if err == nil {
		return
	}
	if s.hazardous && errors.Is(err, pcie.ErrLinkDown) {
		if attempt < s.cfg.Retry.Attempts() {
			next := attempt + 1
			b.members[0].retries++
			s.obsInstant(b.a, obs.TypeRetry, 0, b.track, "", l.from+"→"+l.to, int64(next))
			s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, next), b.guard(func() {
				b.fabricAttempt(l, n, done, next)
			}))
			return
		}
		b.abandon()
		return
	}
	b.fail(fmt.Errorf("dmxsys: transfer %s→%s: %w", l.from, l.to, err))
}

// Scheduling keys, mirroring request.kernelKey/hopKey at batch scale:
// EDF uses the most urgent member's deadline; SRS uses the batch's
// total remaining station demand (n× the per-request table).

func (b *batch) minDeadlineKey() int64 {
	key := deadlineKey(0)
	for _, m := range b.members {
		if k := deadlineKey(m.deadline); k < key {
			key = k
		}
	}
	return key
}

func (b *batch) kernelKey() int64 {
	switch b.s.cfg.Sched {
	case SchedEDF:
		return b.minDeadlineKey()
	case SchedSRS:
		return int64(b.a.remAtKernel[b.k]) * b.n()
	}
	return 0
}

func (b *batch) hopKey() int64 {
	switch b.s.cfg.Sched {
	case SchedEDF:
		return b.minDeadlineKey()
	case SchedSRS:
		return int64(b.a.remAtHop[b.k]) * b.n()
	}
	return 0
}

// stepInput ships the coalesced payload host → first accelerator.
func (b *batch) stepInput() {
	s, a := b.s, b.a
	bytes := b.n() * a.pipe.InputBytes
	a.occupyLeg(a.input, bytes)
	s.obsInstant(a, obs.TypeInputDMA, 0, a.input.from, a.input.to, "", bytes)
	b.legBegin = s.Eng.Now()
	b.transfer(a.input, bytes, b.inputArrived)
}

func (b *batch) inputArrived() {
	a := b.a
	b.obsDMA(obs.TypeInputDMA, 0, a.input.from, a.input.to, b.n()*a.pipe.InputBytes, b.legBegin)
	b.lap(phaseMovement)
	b.stepKernel()
}

// stepKernel enqueues stage k's kernel once for the whole batch: the
// accelerator sees one launch over n× the bytes, which is where the
// launch-overhead amortization comes from.
func (b *batch) stepKernel() {
	b.attempt = 1
	b.kernelAttempt()
}

func (b *batch) kernelAttempt() {
	s, a, k := b.s, b.a, b.k
	st := a.pipe.Stages[k]
	dev := a.accelDev[k]
	if s.hazardous {
		if stall := s.inj.StallUntil(dev, s.Eng.Now()); stall > 0 {
			s.obsInstant(a, obs.TypeStall, 0, dev, "", st.Accel.Name, int64(stall))
			s.Eng.Schedule(stall, b.guard(b.kernelAttempt))
			return
		}
	}
	step := uint8(0)
	if k > 0 {
		step = obs.StepNextKernel
	}
	bytes := b.n() * st.InBytes
	s.obsInstant(a, obs.TypeKernelEnqueued, step, dev, "", st.Accel.Name, bytes)
	service := st.Accel.Latency(bytes)
	a.occupyAccel(k, service)
	b.arm(st.Accel.Name, b.kernelTimeout)
	a.accelSrv[k].SubmitKeyed(a.id, b.kernelKey(), service, b.guard(b.kernelDone))
}

func (b *batch) kernelTimeout() {
	s := b.s
	if b.attempt < s.cfg.Retry.Attempts() {
		b.attempt++
		b.members[0].retries++
		st := b.a.pipe.Stages[b.k]
		s.obsInstant(b.a, obs.TypeRetry, 0, b.track, "", st.Accel.Name, int64(b.attempt))
		s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, b.attempt), b.guard(b.kernelAttempt))
		return
	}
	b.abandon()
}

func (b *batch) kernelDone() {
	s, a, k := b.s, b.a, b.k
	st := a.pipe.Stages[k]
	b.disarm()
	b.lap(phaseKernel)
	s.obsInstant(a, obs.TypeKernelDone, obs.StepKernelDone, a.accelDev[k], "", st.Accel.Name, 0)
	if k == len(a.pipe.Stages)-1 {
		b.stepOutput()
		return
	}
	b.stepHop()
}

func (b *batch) nextStage() {
	b.k++
	b.stepKernel()
}

// stepOutput returns the coalesced result to the host, then splits the
// completion back out per member.
func (b *batch) stepOutput() {
	s, a := b.s, b.a
	bytes := b.n() * a.pipe.OutputBytes
	a.occupyLeg(a.output, bytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeOutputDMA, 0, a.output.from, a.output.to, "", bytes)
		b.legBegin = s.Eng.Now()
		b.transfer(a.output, bytes, b.outputDone)
	})
}

func (b *batch) outputDone() {
	a := b.a
	b.obsDMA(obs.TypeOutputDMA, 0, a.output.from, a.output.to, b.n()*a.pipe.OutputBytes, b.legBegin)
	b.lap(phaseMovement)
	// Per-member retirement: each member's latency runs from its own
	// arrival, and outcome/retry counters are whatever the member
	// accumulated (batch-level events were accounted to the leader).
	for _, m := range b.members {
		m.finish()
	}
	b.members = b.members[:0]
	b.release()
}

// stepHop mirrors request.stepHop.
func (b *batch) stepHop() {
	switch b.s.cfg.Placement {
	case MultiAxl, Integrated:
		b.hopHostIn()
	case Standalone:
		b.hopCardIn()
	case PCIeIntegrated:
		b.hopSwitchIn()
	case BumpInTheWire:
		b.hopBumpIn()
	default:
		b.fail(fmt.Errorf("dmxsys: hop under %v", b.s.cfg.Placement))
	}
}

// hopHostIn: one interrupt and one descriptor for the whole batch, then
// the coalesced DMA accel → host.
func (b *batch) hopHostIn() {
	s, a, k := b.s, b.a, b.k
	l := a.hops[k].toHost
	bytes := b.n() * a.pipe.Hops[k].InBytes
	a.occupyLeg(l, bytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeHostDMA, 0, l.from, l.to, "", bytes)
		b.legBegin = s.Eng.Now()
		b.transfer(l, bytes, b.hopHostArrived)
	})
}

func (b *batch) hopHostArrived() {
	a, k := b.a, b.k
	l := a.hops[k].toHost
	b.obsDMA(obs.TypeHostDMA, 0, l.from, l.to, b.n()*a.pipe.Hops[k].InBytes, b.legBegin)
	b.lap(phaseMovement)
	b.restructureHost(b.hopHostRestructured)
}

func (b *batch) hopHostRestructured() {
	s, a, k := b.s, b.a, b.k
	l := a.hops[k].fromHost
	bytes := b.n() * a.pipe.Hops[k].OutBytes
	b.lap(phaseRestructure)
	a.occupyLeg(l, bytes)
	s.Eng.Schedule(DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeHostDMA, 0, l.from, l.to, "", bytes)
		b.legBegin = s.Eng.Now()
		b.transfer(l, bytes, b.hopHostDone)
	})
}

func (b *batch) hopHostDone() {
	a, k := b.a, b.k
	l := a.hops[k].fromHost
	b.obsDMA(obs.TypeHostDMA, 0, l.from, l.to, b.n()*a.pipe.Hops[k].OutBytes, b.legBegin)
	b.lap(phaseMovement)
	b.nextStage()
}

// hopCardIn: coalesced P2P DMA to the app's standalone DRX card.
func (b *batch) hopCardIn() {
	s, a, k := b.s, b.a, b.k
	l := a.hops[k].in
	bytes := b.n() * a.pipe.Hops[k].InBytes
	a.occupyLeg(l, bytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeP2PDMA, obs.StepRXDMA, l.from, l.to, "", bytes)
		b.legBegin = s.Eng.Now()
		b.transfer(l, bytes, b.hopCardArrived)
	})
}

func (b *batch) hopCardArrived() {
	a, k := b.a, b.k
	l := a.hops[k].in
	b.obsDMA(obs.TypeP2PDMA, obs.StepRXDMA, l.from, l.to, b.n()*a.pipe.Hops[k].InBytes, b.legBegin)
	b.lap(phaseMovement)
	b.restructureDRX(b.hopCardRestructured)
}

func (b *batch) hopCardRestructured() {
	s, a, k := b.s, b.a, b.k
	l := a.hops[k].out
	bytes := b.n() * a.pipe.Hops[k].OutBytes
	b.lap(phaseRestructure)
	a.occupyLeg(l, bytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, "", bytes)
		b.legBegin = s.Eng.Now()
		b.transfer(l, bytes, b.hopCardDone)
	})
}

func (b *batch) hopCardDone() {
	a, k := b.a, b.k
	l := a.hops[k].out
	b.obsDMA(obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, b.n()*a.pipe.Hops[k].OutBytes, b.legBegin)
	b.lap(phaseMovement)
	b.nextStage()
}

// hopSwitchIn: coalesced up-leg into the switch-integrated DRX.
func (b *batch) hopSwitchIn() {
	s, a, k := b.s, b.a, b.k
	l := a.hops[k].in
	bytes := b.n() * a.pipe.Hops[k].InBytes
	a.occupyLeg(l, bytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeP2PDMA, obs.StepRXDMA, l.from, l.to, "", bytes)
		b.legBegin = s.Eng.Now()
		b.transfer(l, bytes, b.hopSwitchArrived)
	})
}

func (b *batch) hopSwitchArrived() {
	a, k := b.a, b.k
	l := a.hops[k].in
	b.obsDMA(obs.TypeP2PDMA, obs.StepRXDMA, l.from, l.to, b.n()*a.pipe.Hops[k].InBytes, b.legBegin)
	b.lap(phaseMovement)
	b.restructureDRX(b.hopSwitchRestructured)
}

func (b *batch) hopSwitchRestructured() {
	s, a, k := b.s, b.a, b.k
	l := a.hops[k].out
	bytes := b.n() * a.pipe.Hops[k].OutBytes
	b.lap(phaseRestructure)
	a.occupyLeg(l, bytes)
	s.obsInstant(a, obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, "", bytes)
	b.legBegin = s.Eng.Now()
	b.transfer(l, bytes, b.hopSwitchDone)
}

func (b *batch) hopSwitchDone() {
	a, k := b.a, b.k
	l := a.hops[k].out
	b.obsDMA(obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, b.n()*a.pipe.Hops[k].OutBytes, b.legBegin)
	b.lap(phaseMovement)
	b.nextStage()
}

// hopBumpIn: the Fig. 10 inline sequence at batch scale. The batch-size
// cap (appInstance.maxBatch, computed at build) guarantees the scaled
// payload fits the inline DRX data queues, so queueAdmit can always
// eventually succeed.
func (b *batch) hopBumpIn() {
	s, a, k := b.s, b.a, b.k
	h := a.pipe.Hops[k]
	b.rx, b.tx = a.hops[k].rx, a.hops[k].tx
	from, drxTrack := a.accelDev[k], a.drxServer[k].Name()
	link := pcie.LinkConfig{Gen: s.cfg.Gen, Lanes: s.cfg.AccelLanes}
	inBytes := b.n() * h.InBytes
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.queueAdmit(b.rx, inBytes, func() {
			b.rxHeld = inBytes
			s.obsInstant(a, obs.TypeQueueDMA, obs.StepRXDMA, from, drxTrack, "", inBytes)
			b.legBegin = s.Eng.Now()
			s.localBytes += inBytes
			s.Eng.Schedule(sim.BytesAt(inBytes, link.Bandwidth()), b.guard(b.hopBumpAtDRX))
		})
	})
}

func (b *batch) hopBumpAtDRX() {
	a, k := b.a, b.k
	h := a.pipe.Hops[k]
	b.obsDMA(obs.TypeQueueDMA, obs.StepRXDMA, a.accelDev[k], a.drxServer[k].Name(), b.n()*h.InBytes, b.legBegin)
	b.lap(phaseMovement)
	b.restructureDRX(b.hopBumpRestructured)
}

func (b *batch) hopBumpRestructured() {
	h := b.a.pipe.Hops[b.k]
	b.s.queueAdmit(b.tx, b.n()*h.OutBytes, b.guard(b.hopBumpTXAdmitted))
}

func (b *batch) hopBumpTXAdmitted() {
	s, a, k := b.s, b.a, b.k
	l := a.hops[k].out
	outBytes := b.n() * a.pipe.Hops[k].OutBytes
	b.txHeld = outBytes
	if b.rx != nil && b.rxHeld > 0 {
		// Release whatever RX share the batch still holds (peeled
		// members took their per-request share with them).
		if err := b.rx.Dequeue(b.rxHeld); err != nil {
			b.fail(fmt.Errorf("dmxsys: %w", err))
			return
		}
		b.rxHeld = 0
	}
	b.lap(phaseRestructure)
	a.occupyLeg(l, outBytes)
	s.obsInstant(a, obs.TypeTXReady, obs.StepTXReady, a.drxServer[k].Name(), "", "", outBytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.obsInstant(a, obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, "", outBytes)
		b.legBegin = s.Eng.Now()
		b.transfer(l, outBytes, b.hopBumpDone)
	})
}

func (b *batch) hopBumpDone() {
	a, k := b.a, b.k
	l := a.hops[k].out
	if b.tx != nil && b.txHeld > 0 {
		if err := b.tx.Dequeue(b.txHeld); err != nil {
			b.fail(fmt.Errorf("dmxsys: %w", err))
			return
		}
		b.txHeld = 0
	}
	b.obsDMA(obs.TypeP2PDMA, obs.StepP2PDMA, l.from, l.to, b.n()*a.pipe.Hops[k].OutBytes, b.legBegin)
	b.lap(phaseMovement)
	b.nextStage()
}

// restructureHost dispatches hop k's restructuring at the host for the
// whole batch: CPU work and traffic scale with the member count
// (restructuring streams the payload; nothing amortizes).
func (b *batch) restructureHost(done func()) {
	s, a, k := b.s, b.a, b.k
	if s.cfg.Placement == Integrated {
		b.restructureDRX(done)
		return
	}
	h := a.pipe.Hops[k]
	s.obsInstant(a, obs.TypeHostRestructure, 0, pcie.Root, "", h.Kernel.Name, b.n()*h.InBytes)
	ops, bytes := s.restructureWork(h.Kernel)
	ops *= b.n()
	bytes *= b.n()
	s.occupyCPU(a, ops, bytes)
	s.cpuJob(ops, bytes, done)
}

// restructureDRX queues hop k's kernel on the DRX once for the whole
// batch, at n× the per-request service (DRX execution streams data; a
// batch buys one dispatch, not faster restructuring). Fault handling is
// where batching meets the PR 5 recovery ladder:
//
//   - a unit inside an outage window degrades the whole batch (the
//     incident is device-level; every member's payload is on it);
//   - a transient restructure error is rolled per member, in arrival
//     order: faulted members peel out and retry alone on the solo
//     ladder, clean members continue in the (smaller) batch;
//   - the stage watchdog degrades the whole batch, like the outage.
func (b *batch) restructureDRX(done func()) {
	b.attempt = 1
	s, a, k := b.s, b.a, b.k
	kern := a.pipe.Hops[k].Kernel
	unit := a.drxServer[k].Name()
	if s.hazardous {
		if down, _ := s.inj.DRXDown(unit, s.Eng.Now()); down {
			b.degrade()
			return
		}
	}
	s.obsInstant(a, obs.TypeRestructure, obs.StepRestructure,
		unit, "", kern.Name, b.n()*a.pipe.Hops[k].InBytes)
	d := a.hopDRX[k] * sim.Duration(b.n())
	a.occupyDRX(k, d)
	b.arm(unit, b.degrade)
	a.drxServer[k].SubmitKeyed(a.id, b.hopKey(), d, b.guard(func() {
		b.disarm()
		if s.hazardous {
			b.peelTransients(unit)
			if len(b.members) == 0 {
				// Every member faulted and peeled; the batch is empty
				// and retires without walking further.
				b.release()
				return
			}
		}
		done()
	}))
}

// peelTransients rolls the unit's transient-fault odds once per member,
// in arrival order, and peels the failures out of the batch.
func (b *batch) peelTransients(unit string) {
	ms := b.members
	kept := ms[:0]
	for _, m := range ms {
		if b.s.inj.TransientFault(unit) {
			b.peel(m)
			continue
		}
		kept = append(kept, m)
	}
	b.members = kept
	for i := len(kept); i < len(ms); i++ {
		ms[i] = nil
	}
}

// peel detaches one member whose restructure rolled a transient fault:
// it resumes alone on the solo retry ladder at the current hop (the
// batch dispatch counts as its first attempt), taking its per-request
// RX-queue share with it under bump-in-the-wire, and its batchmates
// are untouched.
func (b *batch) peel(m *request) {
	s, a, k := b.s, b.a, b.k
	m.k = k
	m.mark = s.Eng.Now()
	m.attempt = 1
	if b.rx != nil {
		h := a.pipe.Hops[k]
		m.rx, m.tx = b.rx, b.tx
		m.rxHeld = h.InBytes
		b.rxHeld -= h.InBytes
	}
	m.retryRestructure(m.restructureContinuation())
}

// degrade reroutes the whole batch's hop to CPU-mediated restructuring
// after its DRX path proved unavailable (outage window, watchdog, or a
// peel ladder exhausting below — the CPU fallback itself mirrors
// request.degradeHop at n× payload).
func (b *batch) degrade() {
	s, a, k := b.s, b.a, b.k
	h := a.pipe.Hops[k]
	for _, m := range b.members {
		if m.outcome == traffic.OutcomeClean {
			m.outcome = traffic.OutcomeDegraded
		}
	}
	b.releaseQueues()
	s.obsInstant(a, obs.TypeDegrade, 0, b.track, "", a.drxServer[k].Name(), b.n()*h.InBytes)
	b.lap(phaseRestructure)
	if s.cfg.Placement == Integrated {
		ops, bytes := s.restructureWork(h.Kernel)
		ops *= b.n()
		bytes *= b.n()
		s.occupyCPU(a, ops, bytes)
		s.obsInstant(a, obs.TypeHostRestructure, 0, pcie.Root, "", h.Kernel.Name, b.n()*h.InBytes)
		s.cpuJob(ops, bytes, b.guard(b.hopHostRestructured))
		return
	}
	l := a.hops[k].toHost
	inBytes := b.n() * h.InBytes
	a.occupyLeg(l, inBytes)
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, b.guard(func() {
		s.obsInstant(a, obs.TypeHostDMA, 0, l.from, l.to, "", inBytes)
		b.legBegin = s.Eng.Now()
		b.transfer(l, inBytes, b.degradeAtHost)
	}))
}

func (b *batch) degradeAtHost() {
	s, a, k := b.s, b.a, b.k
	h := a.pipe.Hops[k]
	l := a.hops[k].toHost
	b.obsDMA(obs.TypeHostDMA, 0, l.from, l.to, b.n()*h.InBytes, b.legBegin)
	b.lap(phaseMovement)
	ops, bytes := s.restructureWork(h.Kernel)
	ops *= b.n()
	bytes *= b.n()
	s.occupyCPU(a, ops, bytes)
	s.obsInstant(a, obs.TypeHostRestructure, 0, pcie.Root, "", h.Kernel.Name, b.n()*h.InBytes)
	s.cpuJob(ops, bytes, b.guard(b.degradeRestructured))
}

func (b *batch) degradeRestructured() {
	s, a, k := b.s, b.a, b.k
	l := a.hops[k].fromHost
	outBytes := b.n() * a.pipe.Hops[k].OutBytes
	b.lap(phaseRestructure)
	a.occupyLeg(l, outBytes)
	s.Eng.Schedule(DMASetupLatency, b.guard(func() {
		s.obsInstant(a, obs.TypeHostDMA, 0, l.from, l.to, "", outBytes)
		b.legBegin = s.Eng.Now()
		b.transfer(l, outBytes, b.degradeDone)
	}))
}

func (b *batch) degradeDone() {
	a, k := b.a, b.k
	l := a.hops[k].fromHost
	b.obsDMA(obs.TypeHostDMA, 0, l.from, l.to, b.n()*a.pipe.Hops[k].OutBytes, b.legBegin)
	b.lap(phaseMovement)
	b.nextStage()
}
