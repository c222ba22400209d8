package dmxsys

import (
	"fmt"

	"dmx/internal/obs"
)

// Continuous batching. With Config.BatchWindow set, arrivals of one
// application accumulate in a deterministic window (opened by the first
// pending request, flushed BatchWindow later or when BatchMax fills)
// and walk the pipeline as one carrier (flow.go) of several members:
// one driver round trip, one DMA descriptor, and one kernel/DRX dispatch
// per station, with payloads scaled by the batch size. Requests of one
// app always share a pipeline and placement, so app identity is the
// compatibility key.
//
// What amortizes and what does not follows the hardware model:
// accelerator kernels pay their launch overhead once per dispatch
// (accel.Spec.Latency is concave in bytes), and each leg pays one
// interrupt/poll plus one DMA-descriptor setup instead of one per
// request. DRX restructuring and CPU fallback work stream the payload,
// so a batch costs n× their per-request service — coalescing wins
// nothing there, and link serialization is byte-proportional either
// way. Occupancy accounting charges the batch totals, so the measured
// bottleneck sees exactly the per-request amortization.
//
// Completions split back out per member: each member's latency runs
// from its own arrival (so early members pay the residual window as
// queueing delay), and failure handling stays per-request — a member
// whose restructure rolls a transient fault peels out of the batch onto
// a carrier of its own and retries alone, while its batchmates continue
// unharmed. Device-level incidents (a DRX outage window, a dead link
// after retries) degrade or abandon the batch as a whole, because every
// member's payload sits on the same hardware.
//
// Only the accumulation window and the peel branch of the recovery
// ladder live here; the walk is the one in flow.go.

// enqueueBatch parks one admitted request in app a's accumulation
// window, opening the window when it is the first pending request and
// flushing early when the size cap fills.
func (s *System) enqueueBatch(a *appInstance, r *request) {
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
// solo walk on its own track and is not counted as a batch — which also
// keeps the window=0 and window>0 low-load paths on the same pinned
// code.
func (s *System) dispatchBatch(a *appInstance, members []*request) {
	if len(members) == 1 {
		s.launchSolo(a, members[0])
		return
	}
	c := s.newCarrier(a)
	c.batched = true
	c.members = append(c.members, members...)
	c.mark = s.Eng.Now()
	c.track = a.track
	if s.rec != nil {
		c.track = fmt.Sprintf("%s/b%d", a.track, a.nbatches)
	}
	a.nbatches++
	a.batchedReqs += len(members)
	s.obsInstant(a, obs.TypeBatch, 0, c.track, "", "", c.n())
	c.stepInput()
}

// peelTransients is the batch branch of the transient-fault roll: the
// unit's odds are rolled once per member, in arrival order, and the
// failures peel out of the batch.
func (c *carrier) peelTransients(unit string) {
	ms := c.members
	kept := ms[:0]
	for _, m := range ms {
		if c.s.inj.TransientFault(unit) {
			c.peel(m)
			continue
		}
		kept = append(kept, m)
	}
	c.members = kept
	for i := len(kept); i < len(ms); i++ {
		ms[i] = nil
	}
}

// peel detaches one member whose restructure rolled a transient fault
// onto a carrier of its own: it resumes alone on the retry ladder at the
// current hop (the batch dispatch counts as its first attempt), taking
// its per-request RX-queue share with it under bump-in-the-wire, and its
// batchmates are untouched.
func (c *carrier) peel(m *request) {
	s, k := c.s, c.k
	p := s.soloCarrier(c.a, m)
	p.k = k
	p.mark = s.Eng.Now()
	p.attempt = 1
	if c.rx != nil {
		in := c.a.pipe.Hops[k].InBytes
		p.rx, p.tx = c.rx, c.tx
		p.rxHeld = in
		c.rxHeld -= in
	}
	p.retryRestructure()
}
