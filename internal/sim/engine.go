package sim

import (
	"fmt"

	"dmx/internal/obs"
)

// event is one scheduled callback. The engine owns every event: events
// are allocated in slabs, and fired or canceled events return to a
// per-engine free list for reuse by later Schedule/At calls, so the
// steady-state scheduling hot loop allocates nothing. gen increments on
// every recycle, which is what keeps stale EventRef handles inert.
//
// loc/rungIdx/bucket/pos record where the event sits inside the ladder
// queue (queue.go) so Cancel can purge it from its tier immediately.
type event struct {
	at Time
	// seq is the same-instant tie-break: FIFO among events at one time.
	seq uint64
	gen uint64 // recycle generation, validates EventRef handles
	fn  func()
	eng *Engine // owner, gives EventRef.Cancel its purge path

	loc     int8  // which ladder tier holds the event (locNone when popped)
	rungIdx int16 // rung index when loc == locRung
	bucket  int32 // bucket index when loc == locRung
	pos     int32 // index within its tier's slice
}

// Slab sizing for event allocation. Slabs grow geometrically from
// minSlab up to maxSlab, so a short-lived engine holding a handful of
// timers allocates a handful of nodes, while a run that peaks at a
// million pending events performs ~4k event allocations, not a
// million.
const (
	minSlab = 8
	maxSlab = 256
)

// EventRef is a caller's handle to a scheduled event. It is a small
// value (safe to copy, compare against the zero value, or drop) whose
// Cancel and Time stay correct even after the engine recycles the
// underlying event: a ref to an event that already fired or was already
// canceled simply no-ops.
type EventRef struct {
	ev  *event
	gen uint64
	at  Time
}

// Time reports when the event will fire (or would have fired, if
// canceled).
func (r EventRef) Time() Time { return r.at }

// Cancel prevents the event from firing and immediately returns it to
// the engine's free list — no tombstone is left behind, so Pending
// drops at once and the slot is reused by the very next Schedule.
// Canceling an event that has already fired or was already canceled is
// a no-op, as is canceling the zero EventRef (double-Cancel is safe:
// the first Cancel bumps the recycle generation, making the second a
// stale no-op).
func (r EventRef) Cancel() {
	ev := r.ev
	if ev == nil || ev.gen != r.gen {
		return
	}
	ev.eng.lq.remove(ev)
	ev.eng.recycle(ev)
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use. Engine is not safe for concurrent use; the simulation
// models are single-threaded by design (harness-level parallelism runs
// whole engines independently).
type Engine struct {
	now    Time
	lq     ladder
	seq    uint64
	nfired uint64
	free   []*event // recycled events, reused by At
	slab   int      // next slab size (geometric up to maxSlab)
	batch  []*event // scratch for ScheduleBatch

	// Obs, when non-nil, receives structured occupancy events from every
	// Server and Channel bound to this engine (the engine itself emits
	// nothing — it only carries the recorder so model components share
	// one sink). A nil recorder is the zero-overhead disabled state: the
	// emit paths are a nil check, and the scheduling hot loop stays
	// allocation-free (pinned by TestEngineSteadyStateDoesNotAllocate).
	Obs *obs.Recorder
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed; useful as a cheap
// progress metric and in tests.
func (e *Engine) Fired() uint64 { return e.nfired }

// Pending reports the number of live scheduled events: events that will
// fire unless canceled. Canceled events leave the count immediately
// (Cancel purges them from the queue rather than leaving a tombstone),
// so Pending never overcounts.
func (e *Engine) Pending() int { return e.lq.n }

// Schedule arranges for fn to run after delay. A negative delay panics:
// the simulated causality would be violated.
func (e *Engine) Schedule(delay Duration, fn func()) EventRef {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now.Add(delay), fn)
}

// At arranges for fn to run at absolute time t, which must not precede
// the current clock.
func (e *Engine) At(t Time, fn func()) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc()
	ev.at = t
	ev.fn = fn
	ev.seq = e.seq
	e.seq++
	e.lq.insert(ev)
	return EventRef{ev: ev, gen: ev.gen, at: t}
}

// ScheduleBatch arranges for every callback in fns to run after delay,
// in slice order — exactly equivalent to calling Schedule once per
// callback (the events receive consecutive seqs at one instant, so
// their firing order is the slice order), but the queue tier is
// resolved once for the whole block. This is the path for completion
// storms: a channel retiring a batch of simultaneous transfers, a
// server admitting a burst of identical jobs. No refs are returned; use
// Schedule when a cancelable handle is needed. fns may be reused by the
// caller after the call returns.
func (e *Engine) ScheduleBatch(delay Duration, fns []func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if len(fns) == 0 {
		return
	}
	t := e.now.Add(delay)
	e.batch = e.batch[:0]
	for _, fn := range fns {
		if fn == nil {
			panic("sim: nil event callback")
		}
		ev := e.alloc()
		ev.at = t
		ev.fn = fn
		ev.seq = e.seq
		e.seq++
		e.batch = append(e.batch, ev)
	}
	e.lq.insertBatch(e.batch)
	for i := range e.batch {
		e.batch[i] = nil
	}
	e.batch = e.batch[:0]
}

// Reschedule cancels ref (if still live) and schedules fn after delay,
// returning the new handle: the timer-reset idiom (cancel + schedule)
// in one call. When the new firing time equals ref's and ref's event
// was the most recently scheduled one, the entry is updated in place —
// provably order-identical to cancel+schedule, since no seq has been
// issued in between — and no queue surgery happens at all.
func (e *Engine) Reschedule(ref EventRef, delay Duration, fn func()) EventRef {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	t := e.now.Add(delay)
	if ev := ref.ev; ev != nil && ev.gen == ref.gen && ev.at == t && ev.seq == e.seq-1 {
		ev.fn = fn
		return ref
	}
	ref.Cancel()
	return e.At(t, fn)
}

// alloc takes an event from the free list, growing it a slab at a time
// (geometrically, so small engines stay small and big ones amortize).
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	size := e.slab * 2
	if size < minSlab {
		size = minSlab
	}
	if size > maxSlab {
		size = maxSlab
	}
	e.slab = size
	slab := make([]event, size)
	for i := size - 1; i > 0; i-- {
		slab[i].eng = e
		e.free = append(e.free, &slab[i])
	}
	slab[0].eng = e
	return &slab[0]
}

// recycle returns a popped or purged event to the free list. Bumping
// gen first invalidates every outstanding EventRef to it.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// fire advances the clock to ev and runs its callback. It is the single
// execution path shared by Step and RunUntil (there is no separate
// purge loop anywhere: canceled events never reach the queue's head
// because Cancel removes them immediately).
func (e *Engine) fire(ev *event) {
	e.now = ev.at
	e.nfired++
	fn := ev.fn
	// Recycle before running the callback: fn frequently reschedules,
	// and reusing this very event keeps the hot loop allocation-free.
	// Any EventRef to it is invalidated by the gen bump, so a late
	// Cancel from inside fn cannot touch the recycled slot's new owner
	// by accident.
	e.recycle(ev)
	fn()
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev := e.lq.pop()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for {
		ev := e.lq.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.lq.pop()
		e.fire(ev)
	}
	if t > e.now {
		e.now = t
	}
}
