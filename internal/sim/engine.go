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
// The event's key (at, seq) lives in its entry, not here; pos is the
// entry's index in the heap, kept current by every sift so Cancel can
// purge the event in O(log n), or -1 while the entry sits in
// Engine.next.
type event struct {
	gen uint64 // recycle generation, validates EventRef handles
	fn  func()
	eng *Engine // owner, gives EventRef.Cancel its purge path
	pos int     // index of the event's entry in Engine.heap, -1 in next
}

// entry is one pending event: a heap element, or Engine.next. The key
// is stored inline so a sift compares siblings without chasing event
// pointers.
type entry struct {
	at Time
	// seq is the same-instant tie-break: FIFO among events at one time.
	seq uint64
	ev  *event
}

// before is the heap's total order: time, then schedule order. seq is
// unique, so the order is strict.
func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
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
}

// Cancel prevents the event from firing and immediately returns it to
// the engine's free list — no tombstone is left behind, so Pending
// drops at once and the event node is reused by the very next Schedule.
// Canceling an event that has already fired or was already canceled is
// a no-op, as is canceling the zero EventRef (double-Cancel is safe:
// the first Cancel bumps the recycle generation, making the second a
// stale no-op).
func (r EventRef) Cancel() {
	ev := r.ev
	if ev == nil || ev.gen != r.gen {
		return
	}
	e := ev.eng
	if ev.pos < 0 {
		e.next = entry{}
	} else {
		e.remove(ev.pos)
	}
	e.recycle(ev)
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use. Engine is not safe for concurrent use; the simulation
// models are single-threaded by design (harness-level parallelism runs
// whole engines independently).
type Engine struct {
	now Time
	// next, when its ev is set, is the earliest pending event: it
	// precedes every heap entry. A callback's zero-delay successor
	// lands here and fires next without touching the heap.
	next   entry
	heap   []entry // the other pending events, a 4-ary min-heap on (at, seq)
	seq    uint64  // next unissued seq
	last   entry   // key of the event fired last (ev is nil)
	nfired uint64
	free   []*event // recycled events, reused by At
	slab   int      // next slab size (geometric up to maxSlab)

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

// Fired reports how many queued events have been executed; useful as a
// cheap progress metric and in tests. A channel completion delivered in
// place (Engine.runNow) runs no queued event and is not counted.
func (e *Engine) Fired() uint64 { return e.nfired }

// Pending reports the number of live scheduled events: events that will
// fire unless canceled. Canceled events leave the count immediately
// (Cancel purges them from the queue rather than leaving a tombstone),
// so Pending never overcounts.
func (e *Engine) Pending() int {
	if e.next.ev != nil {
		return len(e.heap) + 1
	}
	return len(e.heap)
}

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
	e.check(t, fn)
	ev := e.push(t, e.seq, fn)
	e.seq++
	return EventRef{ev: ev, gen: ev.gen}
}

// check panics on a callback the engine cannot schedule at t.
func (e *Engine) check(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
}

// Reschedule cancels ref (if still live) and schedules fn after delay,
// returning the new handle: the timer-reset idiom (cancel + schedule)
// in one call. When the new firing time equals ref's and ref's event
// holds the most recently issued seq, the entry is updated in place —
// provably order-identical to cancel+schedule, since no seq lies
// between the two — and no heap surgery happens at all.
func (e *Engine) Reschedule(ref EventRef, delay Duration, fn func()) EventRef {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	t := e.now.Add(delay)
	if ev := ref.ev; ev != nil && ev.gen == ref.gen {
		k := &e.next
		if ev.pos >= 0 {
			k = &e.heap[ev.pos]
		}
		if k.at == t && k.seq == e.seq-1 {
			ev.fn = fn
			return ref
		}
	}
	ref.Cancel()
	return e.At(t, fn)
}

// runNow runs fn at the current instant as the event At(now, fn)
// would. When no other event is due now, that event would fire next,
// right after the running callback returns, so fn runs in place
// instead: it takes the seq the event would have been issued and sets
// last as fire would, so every later (at, seq) key and every
// Reservation.At check come out as if it had been queued. Otherwise fn
// is queued. The caller must be a fired event's callback and call
// runNow as its last statement; Fired does not count an in-place run.
func (e *Engine) runNow(fn func()) {
	top := e.next
	if top.ev == nil && len(e.heap) > 0 {
		top = e.heap[0]
	}
	if top.ev != nil && top.at == e.now {
		e.At(e.now, fn)
		return
	}
	e.last = entry{at: e.now, seq: e.seq}
	e.seq++
	fn()
}

// Reservation is a block of seqs claimed ahead of use by Reserve. A
// producer that knows how many events it will make reserves their seqs
// up front and schedules each one later with At, say when its
// predecessor fires: the events get exactly the (at, seq) keys an
// up-front schedule loop would have given them, while only one of them
// needs to sit in the heap at a time. Use a Reservation through one
// variable: a copy would hand out the same seqs again.
type Reservation struct {
	eng       *Engine
	next, end uint64 // unused seqs [next, end)
}

// Reserve claims the next n seqs for later use through the returned
// Reservation. Seqs issued afterwards by Schedule and At follow the
// block, exactly as if n events had been scheduled here.
func (e *Engine) Reserve(n int) Reservation {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative reservation %d", n))
	}
	r := Reservation{eng: e, next: e.seq, end: e.seq + uint64(n)}
	e.seq = r.end
	return r
}

// At schedules fn at absolute time t under the block's next unused seq.
// It panics when the block has no seq left (the zero Reservation has
// none), on a nil callback, on a time before the clock, and on a key
// that would precede the event fired last: that event would have fired
// after it in an up-front schedule, so the order would change.
func (r *Reservation) At(t Time, fn func()) {
	if r.next >= r.end {
		panic("sim: scheduling at a seq that was not reserved")
	}
	e := r.eng
	e.check(t, fn)
	if t == e.last.at && r.next < e.last.seq {
		panic(fmt.Sprintf("sim: reserved seq %d at %v precedes the fired seq %d", r.next, t, e.last.seq))
	}
	e.push(t, r.next, fn)
	r.next++
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

// push files a fresh event under key (t, seq) and returns it. An event
// that precedes every pending one takes next, and an event it displaces
// from there goes into the heap; any other event goes into the heap.
func (e *Engine) push(t Time, seq uint64, fn func()) *event {
	ev := e.alloc()
	ev.fn = fn
	x := entry{at: t, seq: seq, ev: ev}
	if e.next.ev != nil {
		if !x.before(&e.next) {
			e.insert(x)
			return ev
		}
		e.insert(e.next)
	} else if len(e.heap) > 0 && !x.before(&e.heap[0]) {
		e.insert(x)
		return ev
	}
	e.next = x
	ev.pos = -1
	return ev
}

// insert adds x to the heap.
func (e *Engine) insert(x entry) {
	e.heap = append(e.heap, x)
	e.up(len(e.heap) - 1)
}

// up moves the entry at i toward the root until its parent precedes it.
func (e *Engine) up(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.pos = i
		i = p
	}
	h[i] = x
	x.ev.pos = i
}

// down moves the entry at i toward the leaves until it precedes all of
// its (up to four) children.
func (e *Engine) down(i int) {
	h := e.heap
	n := len(h)
	x := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		h[i].ev.pos = i
		i = m
	}
	h[i] = x
	x.ev.pos = i
}

// remove deletes the entry at i, filling the hole with the last entry
// and sifting that whichever way restores the heap. The removed event
// is not recycled here.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = entry{}
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.heap[i] = last
	if i > 0 && last.before(&e.heap[(i-1)/4]) {
		e.up(i)
	} else {
		e.down(i)
	}
}

// fire pops the earliest event (next, else the heap root), advances
// the clock to it, and runs its callback. It is Run's execution path
// (and that of the tests' Step and RunUntil); callers ensure an event is
// pending. Canceled events never reach it because Cancel removes them
// at once.
func (e *Engine) fire() {
	top := e.next
	if top.ev != nil {
		e.next = entry{}
	} else {
		top = e.heap[0]
		e.remove(0)
	}
	e.now = top.at
	e.last = entry{at: top.at, seq: top.seq}
	e.nfired++
	ev := top.ev
	fn := ev.fn
	// Recycle before running the callback: fn frequently reschedules,
	// and reusing this very event keeps the hot loop allocation-free.
	// Any EventRef to it is invalidated by the gen bump, so a late
	// Cancel from inside fn cannot touch the recycled node's new owner
	// by accident.
	e.recycle(ev)
	fn()
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Pending() > 0 {
		e.fire()
	}
}
