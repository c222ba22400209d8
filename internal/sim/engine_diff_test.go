package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// This file is the engine's order oracle: a reference engine
// (refEngine: container/heap on (at, seq), tombstone cancels, every
// event scheduled the moment it is known) and the real Engine are
// driven side by side through random schedule/cancel/same-instant/
// reserved-arrival/next-slot/Step/RunUntil workloads, and every fired
// event must match in (time, seq-order, pending count) — i.e. the
// indexed heap with its next-event slot and eager cancel purge, and the
// on-demand scheduling of reserved seqs, realize the same total order
// as the plain reference.

// refEvent/refEngine are the reference: a binary heap ordered by
// (at, seq), cancellation via tombstone, lazy purge on pop.
type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	done bool // fired or canceled
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now   Time
	queue refHeap
	seq   uint64
	live  int // scheduled events neither fired nor canceled
	// lastAt, lastSeq are the key of the event fired last; fired counts
	// the events fired.
	lastAt  Time
	lastSeq uint64
	fired   int
}

func (e *refEngine) at(t Time, fn func()) *refEvent {
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.live++
	heap.Push(&e.queue, ev)
	return ev
}

// cancel tombstones ev; a fired or already canceled event is left alone.
func (e *refEngine) cancel(ev *refEvent) {
	if !ev.done {
		ev.done = true
		e.live--
	}
}

func (e *refEngine) step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.done {
			continue
		}
		ev.done = true
		e.live--
		e.now = ev.at
		e.lastAt, e.lastSeq = ev.at, ev.seq
		e.fired++
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) runUntil(t Time) {
	for e.queue.Len() > 0 {
		next := e.queue[0]
		if next.done {
			heap.Pop(&e.queue)
			continue
		}
		if next.at > t {
			break
		}
		e.step()
	}
	if t > e.now {
		e.now = t
	}
}

func (e *refEngine) run() {
	for e.step() {
	}
}

// diffSide is one engine under the differential, so that an op acting
// alike on both is written once. Handles are an EventRef on the real
// engine and a *refEvent on the reference.
type diffSide interface {
	now() Time
	pending() int
	at(t Time, fn func()) any
	cancel(h any)
	reschedule(h any, delay Duration, fn func()) any
}

// realSide counts reserved arrivals not fed yet as pending: the
// reference holds them from the start.
type realSide struct {
	e     *Engine
	unfed *int
}

func (s realSide) now() Time                { return s.e.Now() }
func (s realSide) pending() int             { return s.e.Pending() + *s.unfed }
func (s realSide) at(t Time, fn func()) any { return s.e.At(t, fn) }
func (s realSide) cancel(h any)             { h.(EventRef).Cancel() }
func (s realSide) reschedule(h any, delay Duration, fn func()) any {
	return s.e.Reschedule(h.(EventRef), delay, fn)
}

// refSide reschedules as cancel + schedule, the contract the engine's
// in-place path must be indistinguishable from.
type refSide struct{ e *refEngine }

func (s refSide) now() Time                { return s.e.now }
func (s refSide) pending() int             { return s.e.live }
func (s refSide) at(t Time, fn func()) any { return s.e.at(t, fn) }
func (s refSide) cancel(h any)             { s.e.cancel(h.(*refEvent)) }
func (s refSide) reschedule(h any, delay Duration, fn func()) any {
	s.e.cancel(h.(*refEvent))
	return s.e.at(s.e.now.Add(delay), fn)
}

// diffDriver replays one op stream against both engines and fails on
// the first divergence in firing order, firing time, pending count or
// clock value. Index 0 of each pair is the real engine, 1 the
// reference.
type diffDriver struct {
	t     *testing.T
	real  *Engine
	ref   *refEngine
	unfed int // reserved arrivals the real engine has not fed yet
	sides [2]diffSide

	// Live cancelable handles, index-aligned across both engines.
	refs   [2][]any
	traces [2][]diffFire

	nextID int
}

type diffFire struct {
	id      int
	at      Time
	pending int
}

func newDiffDriver(t *testing.T) *diffDriver {
	d := &diffDriver{t: t, real: NewEngine(), ref: &refEngine{}}
	d.sides = [2]diffSide{realSide{d.real, &d.unfed}, refSide{d.ref}}
	return d
}

// record logs event id firing on side k, with the clock and the count
// of events still pending.
func (d *diffDriver) record(k, id int) {
	s := d.sides[k]
	d.traces[k] = append(d.traces[k], diffFire{id: id, at: s.now(), pending: s.pending()})
}

// schedule schedules one event on both engines. Fired events with
// chain > 0 reschedule a follow-up from inside their callback, which
// exercises insert-during-fire.
func (d *diffDriver) schedule(delay Duration, chain int, cancelable bool) {
	id := d.nextID
	d.nextID++
	for k, s := range d.sides {
		remaining := chain
		var fn func()
		fn = func() {
			d.record(k, id)
			if remaining > 0 {
				remaining--
				s.at(s.now().Add(delay/2+1), fn)
			}
		}
		h := s.at(s.now().Add(delay), fn)
		if cancelable {
			d.refs[k] = append(d.refs[k], h)
		}
	}
}

// sameInstant schedules n events at one instant: consecutive seqs, so
// they fire in schedule order.
func (d *diffDriver) sameInstant(delay Duration, n int) {
	base := d.nextID
	d.nextID += n
	for k, s := range d.sides {
		t := s.now().Add(delay)
		for i := 0; i < n; i++ {
			id := base + i
			s.at(t, func() { d.record(k, id) })
		}
	}
}

// arrivals feeds n events, gap apart from now+first, the way the
// serving drivers feed a request stream: the real engine reserves n
// seqs and each firing schedules its successor at the next one, while
// the reference schedules all n up front. Same keys, so same order.
func (d *diffDriver) arrivals(first, gap Duration, n int) {
	base := d.nextID
	d.nextID += n
	res := d.real.Reserve(n)
	start := d.real.Now().Add(first)
	var feed func(j int)
	feed = func(j int) {
		res.At(start.Add(Duration(j)*gap), func() {
			d.record(0, base+j)
			if j+1 < n {
				d.unfed--
				feed(j + 1)
			}
		})
	}
	d.unfed += n - 1
	feed(0)
	refStart := d.ref.now.Add(first)
	for j := 0; j < n; j++ {
		j := j
		d.ref.at(refStart.Add(Duration(j)*gap), func() { d.record(1, base+j) })
	}
}

// slotOp drives the next-event slot's shapes on both engines. Event E
// at now+delay fires and, from its callback, schedules a zero-delay
// successor A — the slot's hot shape — and a successor B at now+short
// (now with m&32), before A or, with m&16, after it; A chains one more
// zero-delay successor when it fires. Then, by m%4, E cancels A,
// Reschedules A to its own instant (in place when A holds the newest
// seq, behind a same-instant B otherwise), moves A to now+short, or
// cancels B. With m&4, E is scheduled after a seq reserved ahead of
// it, and the reserved event R is scheduled at E's instant afterwards:
// R precedes E, so it takes the slot from E. With m&8 the clock then
// runs to halfway before E.
func (d *diffDriver) slotOp(delay, short Duration, m byte) {
	base := d.nextID
	d.nextID += 6
	delayB := short
	if m&32 != 0 {
		delayB = 0
	}
	var fnE, fnR [2]func()
	for k, s := range d.sides {
		fnR[k] = func() { d.record(k, base+5) }
		fnE[k] = func() {
			var b any
			succB := func() { b = s.at(s.now().Add(delayB), func() { d.record(k, base+1) }) }
			if m&16 == 0 {
				succB()
			}
			a := s.at(s.now(), func() {
				d.record(k, base+2)
				s.at(s.now(), func() { d.record(k, base+3) })
			})
			if m&16 != 0 {
				succB()
			}
			switch m % 4 {
			case 0:
				s.cancel(a)
			case 1:
				s.reschedule(a, 0, func() { d.record(k, base+4) })
			case 2:
				s.reschedule(a, short, func() { d.record(k, base+4) })
			case 3:
				s.cancel(b)
			}
			d.record(k, base)
		}
	}
	if m&4 != 0 {
		res := d.real.Reserve(1)
		t := d.real.Now().Add(delay)
		d.real.At(t, fnE[0])
		res.At(t, fnR[0])
		t = d.ref.now.Add(delay)
		d.ref.at(t, fnR[1])
		d.ref.at(t, fnE[1])
	} else {
		for k, s := range d.sides {
			s.at(s.now().Add(delay), fnE[k])
		}
	}
	if m&8 != 0 {
		d.runUntil(delay / 2)
	}
}

// cancel cancels handle i%len on both sides (a no-op past the first
// cancel or after firing, on both).
func (d *diffDriver) cancel(i int) {
	if len(d.refs[0]) == 0 {
		return
	}
	i %= len(d.refs[0])
	for k, s := range d.sides {
		s.cancel(d.refs[k][i])
	}
}

func (d *diffDriver) step() {
	d.real.Step()
	d.ref.step()
}

func (d *diffDriver) runUntil(delta Duration) {
	d.real.RunUntil(d.real.Now().Add(delta))
	d.ref.runUntil(d.ref.now.Add(delta))
}

func (d *diffDriver) drain() {
	d.real.Run()
	d.ref.run()
}

// checkState compares the clocks and the pending counts.
func (d *diffDriver) checkState() {
	d.t.Helper()
	if d.real.Now() != d.ref.now {
		d.t.Fatalf("clock diverged: engine %v, reference %v", d.real.Now(), d.ref.now)
	}
	if p, q := d.sides[0].pending(), d.sides[1].pending(); p != q {
		d.t.Fatalf("pending diverged: engine %d, reference %d", p, q)
	}
}

// check compares the two firing traces, the clocks and the pending
// counts.
func (d *diffDriver) check() {
	d.t.Helper()
	d.checkState()
	real, ref := d.traces[0], d.traces[1]
	if len(real) != len(ref) {
		d.t.Fatalf("fired %d events on the engine, %d on the reference", len(real), len(ref))
	}
	for i := range real {
		if real[i] != ref[i] {
			d.t.Fatalf("firing %d diverged: engine %+v, reference %+v", i, real[i], ref[i])
		}
	}
}

// burstMin is the smallest frozen-clock burst op 8 schedules: enough
// distinct timestamps to build a deep pending set with no Step between.
const burstMin = 192

// applyOps interprets a byte stream as a workload: the shared driver
// for the fuzz target and the seeded regression corpus below.
func applyOps(t *testing.T, data []byte) {
	d := newDiffDriver(t)
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	for i < len(data) {
		op := next()
		switch op % 12 {
		case 0, 1: // plain schedule, spread over a wide range
			delay := Duration(next())*17*Nanosecond + Duration(next())*Picosecond
			d.schedule(delay, 0, false)
		case 2: // cancelable schedule
			delay := Duration(next()) * 3 * Nanosecond
			d.schedule(delay, 0, true)
		case 3: // chained schedule (reschedules from inside its callback)
			d.schedule(Duration(next())*5*Nanosecond, int(next()%4), false)
		case 4: // same-instant run of events
			d.sameInstant(Duration(next())*Nanosecond, int(next()%7))
		case 5: // cancel (possibly stale or repeated)
			d.cancel(int(next()))
		case 6:
			d.step()
		case 7:
			d.runUntil(Duration(next()) * 11 * Nanosecond)
		case 8:
			// Frozen-clock burst: distinct timestamps in a
			// picosecond-pitch span with no Step in between.
			n := burstMin + int(next()%64)
			base := Duration(next()) * Nanosecond
			for j := 0; j < n; j++ {
				d.schedule(base+Duration(j)*Picosecond, 0, false)
			}
		case 9:
			// Bounded multi-step: long enough to consume a burst, then
			// leave the rest pending for later schedules to land among.
			n := int(next()) * 4
			for j := 0; j < n; j++ {
				d.step()
			}
		case 10: // reserved-seq arrival stream, fed on demand
			d.arrivals(Duration(next())*Nanosecond, Duration(next()%8)*3*Nanosecond, 1+int(next()%8))
		case 11: // the next-event slot's shapes
			d.slotOp(Duration(next()%16)*Nanosecond, Duration(1+next()%8)*Nanosecond, next())
		}
		d.checkState()
	}
	d.drain()
	d.check()
}

// FuzzLadderVsHeap drives the engine and the reference side by
// side; any divergence in firing order, pending count or clock is a
// crash. The added seeds double as the regression corpus for plain
// `go test`. (This harness was written against the ladder queue that
// preceded the indexed heap; the LadderVsHeap test names are kept so
// the suite's test IDs stay stable.)
func FuzzLadderVsHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 20, 6, 6, 6})
	f.Add([]byte{2, 9, 2, 9, 5, 0, 5, 0, 6, 6})
	f.Add([]byte{4, 3, 6, 4, 3, 6, 7, 50})
	f.Add([]byte{3, 100, 3, 3, 7, 2, 7, 255, 6, 6, 6, 6})
	f.Add([]byte{
		0, 255, 255, 0, 0, 0, 2, 128, 5, 0, 5, 0, 5, 1,
		7, 40, 4, 0, 6, 1, 17, 34, 3, 7, 2, 6, 6, 6, 7, 255,
	})
	f.Add([]byte{8, 0, 4, 9, 10, 8, 63, 0, 9, 255, 0, 0, 50})
	f.Add(gapSeed())
	// Reserved arrival streams interleaved with same-instant schedules,
	// cancels and a bounded RunUntil.
	f.Add([]byte{10, 0, 0, 7, 2, 0, 10, 5, 3, 4, 6, 0, 4, 6, 6, 5, 0, 7, 20, 10, 1, 1, 1})
	// The slot on an empty engine, one mode each: cancel A, Reschedule
	// A in place, move A, cancel B; then a reserved seq taking the slot
	// ahead of E, and RunUntil stopping short of the slot.
	f.Add([]byte{11, 4, 2, 0, 6, 6, 6, 11, 4, 2, 1, 6, 6, 6, 11, 4, 2, 2, 6, 6, 11, 4, 2, 3})
	f.Add([]byte{11, 6, 3, 4, 6, 11, 6, 3, 8, 6, 11, 6, 3, 13, 7, 0})
	// A same-instant B after A: Rescheduling A cannot stay in place.
	f.Add([]byte{11, 0, 0, 49, 6, 6, 6, 11, 0, 0, 48, 6, 6, 11, 0, 0, 51})
	// Slot ops among a loaded heap, ties at the slot's instant and
	// reserved arrivals.
	f.Add([]byte{0, 1, 0, 2, 1, 4, 1, 3, 11, 1, 0, 1, 10, 0, 0, 4, 11, 0, 0, 6, 11, 2, 1, 9, 6, 9, 2, 11, 0, 7, 14, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		applyOps(t, data)
	})
}

// gapSeed is a frozen-clock burst between a far cluster and a late
// near schedule, as an op stream: 64 spread-out far schedules, two
// steps, a 200-event burst 1ps apart from the frozen now, exactly 200
// more steps, then a schedule into the gap between the burst and the
// far cluster. (It once crashed a tiered queue; it stays as a corpus
// entry because it exercises the gap between two dense clusters.)
func gapSeed() []byte {
	var s []byte
	for k := byte(60); k < 124; k++ {
		s = append(s, 0, k, 0) // 64 far schedules, 17ns apart
	}
	s = append(s, 6, 6)      // fire the parked event and the next one
	s = append(s, 8, 8, 0)   // burst: 200 events 1ps apart from the frozen now
	s = append(s, 9, 50)     // step 200×: drain the burst
	s = append(s, 0, 0, 100) // gap schedule: now+100ps, before the far cluster
	return s
}

// TestLadderVsHeapRandom gives the differential harness broad
// coverage in ordinary `go test` runs: many deterministic pseudo-random
// op streams, reserved arrival streams among them.
func TestLadderVsHeapRandom(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := Stream(seed * 0x9e3779b9)
			n := 200 + int(rng.Uint64()%2000)
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			applyOps(t, data)
		})
	}
}

// TestLadderVsHeapFrozenClockChurn: schedule/cancel churn with no
// Steps keeps the clock frozen while events pile up and are purged
// from the middle of the heap before the final drain.
func TestLadderVsHeapFrozenClockChurn(t *testing.T) {
	d := newDiffDriver(t)
	rng := Stream(0xf00d)
	for i := 0; i < 1500; i++ {
		d.schedule(Duration(rng.Uint64()%1_000_000)*Picosecond, 0, true)
	}
	for i := 0; i < 6000; i++ {
		d.cancel(int(rng.Uint64() % 8192))
		d.schedule(Duration(rng.Uint64()%1_000_000)*Picosecond, 0, true)
		if rng.Uint64()%8 == 0 {
			d.sameInstant(Duration(rng.Uint64()%1000)*Picosecond, int(rng.Uint64()%4))
		}
	}
	d.drain()
	d.check()
}

// TestLadderVsHeapHighOccupancy pushes both engines through a
// large pending set with interleaved cancels and boundary RunUntils — the
// saturation regime the shape benchmarks measure.
func TestLadderVsHeapHighOccupancy(t *testing.T) {
	d := newDiffDriver(t)
	rng := Stream(0xdeadbeef)
	for i := 0; i < 20000; i++ {
		switch rng.Uint64() % 16 {
		case 0:
			d.cancel(int(rng.Uint64() % 4096))
		case 1:
			d.runUntil(Duration(rng.Uint64() % 50000))
		case 2:
			d.schedule(Duration(rng.Uint64()%1000), 2, false) // pico-scale ties
		case 3:
			d.sameInstant(Duration(rng.Uint64()%100)*Nanosecond, int(rng.Uint64()%5))
		case 4:
			d.step()
		default:
			d.schedule(Duration(rng.Uint64()%2_000_000)*Picosecond, 0, rng.Uint64()%4 == 0)
		}
	}
	d.drain()
	d.check()
}

// TestLadderVsHeapReservedArrivals runs many reserved streams at
// once, with same-instant gaps and ties against ordinary schedules: the shape
// of the on-demand arrival drivers, checked against the reference that
// schedules every arrival up front.
func TestLadderVsHeapReservedArrivals(t *testing.T) {
	d := newDiffDriver(t)
	rng := Stream(0xa11)
	for i := 0; i < 3000; i++ {
		switch rng.Uint64() % 8 {
		case 0:
			d.arrivals(Duration(rng.Uint64()%4)*Nanosecond, Duration(rng.Uint64()%3)*Nanosecond, 1+int(rng.Uint64()%32))
		case 1:
			d.runUntil(Duration(rng.Uint64()%20) * Nanosecond)
		case 2:
			d.cancel(int(rng.Uint64() % 512))
		case 3:
			d.sameInstant(Duration(rng.Uint64()%4)*Nanosecond, int(rng.Uint64()%4))
		case 4, 5:
			d.step()
		default:
			d.schedule(Duration(rng.Uint64()%8)*Nanosecond, int(rng.Uint64()%3), rng.Uint64()%2 == 0)
		}
	}
	d.drain()
	d.check()
}

// TestLadderVsHeapSlot leans on the next-event slot: slot ops in
// every mode among zero-delay chains, same-instant ties, cancels,
// reserved arrivals, single Steps and short RunUntils, with the
// pending counts compared after every op.
func TestLadderVsHeapSlot(t *testing.T) {
	d := newDiffDriver(t)
	rng := Stream(0x5107)
	for i := 0; i < 4000; i++ {
		switch rng.Uint64() % 8 {
		case 0, 1, 2:
			d.slotOp(Duration(rng.Uint64()%6)*Nanosecond, Duration(1+rng.Uint64()%4)*Nanosecond, byte(rng.Uint64()))
		case 3:
			d.schedule(Duration(rng.Uint64()%3)*Nanosecond, int(rng.Uint64()%3), rng.Uint64()%2 == 0)
		case 4:
			d.cancel(int(rng.Uint64() % 256))
		case 5:
			d.arrivals(Duration(rng.Uint64()%3)*Nanosecond, Duration(rng.Uint64()%2)*Nanosecond, 1+int(rng.Uint64()%4))
		case 6:
			d.step()
		default:
			d.runUntil(Duration(rng.Uint64()%3) * Nanosecond)
		}
		d.checkState()
	}
	d.drain()
	d.check()
}
