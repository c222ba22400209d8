package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// This file is the engine's order oracle: a reference engine
// (refEngine: container/heap on (at, seq), tombstone cancels, every
// event scheduled the moment it is known) and the real Engine are
// driven side by side through random
// schedule/cancel/batch/reserved-arrival/Step/RunUntil workloads, and
// every fired event must match in (time, seq-order) — i.e. the indexed
// heap with its eager cancel purge, and the on-demand scheduling of
// reserved seqs, realize the same total order as the plain reference.

// refEvent/refEngine are the reference: a binary heap ordered by
// (at, seq), cancellation via tombstone, lazy purge on pop.
type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
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
}

func (e *refEngine) schedule(delay Duration, fn func()) *refEvent {
	return e.at(e.now.Add(delay), fn)
}

func (e *refEngine) at(t Time, fn func()) *refEvent {
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) runUntil(t Time) {
	for e.queue.Len() > 0 {
		next := e.queue[0]
		if next.canceled {
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

// diffDriver replays one op stream against both engines and fails on
// the first divergence in firing order, firing time, or clock value.
type diffDriver struct {
	t    *testing.T
	real *Engine
	ref  *refEngine

	// Live cancelable handles, index-aligned across both engines.
	realRefs []EventRef
	refRefs  []*refEvent

	realTrace []diffFire
	refTrace  []diffFire

	nextID int
}

type diffFire struct {
	id int
	at Time
}

func newDiffDriver(t *testing.T) *diffDriver {
	return &diffDriver{t: t, real: NewEngine(), ref: &refEngine{}}
}

// schedule schedules one event on both engines. Fired events with
// chain > 0 reschedule a follow-up from inside their callback, which
// exercises insert-during-fire (including the empty-bottom regimes).
func (d *diffDriver) schedule(delay Duration, chain int, cancelable bool) {
	id := d.nextID
	d.nextID++
	var realFn, refFn func()
	realFn = d.chainFn(&d.realTrace, id, chain, delay, func(dl Duration, fn func()) { d.real.Schedule(dl, fn) }, func() Time { return d.real.Now() }, &realFn)
	refFn = d.chainFn(&d.refTrace, id, chain, delay, func(dl Duration, fn func()) { d.ref.schedule(dl, fn) }, func() Time { return d.ref.now }, &refFn)
	if cancelable {
		d.realRefs = append(d.realRefs, d.real.Schedule(delay, realFn))
		d.refRefs = append(d.refRefs, d.ref.schedule(delay, refFn))
	} else {
		d.real.Schedule(delay, realFn)
		d.ref.schedule(delay, refFn)
	}
}

// chainFn builds a callback that records its firing and, while chain
// lasts, schedules a successor with a shrunk delay.
func (d *diffDriver) chainFn(trace *[]diffFire, id, chain int, delay Duration, sched func(Duration, func()), now func() Time, self *func()) func() {
	remaining := chain
	return func() {
		*trace = append(*trace, diffFire{id: id, at: now()})
		if remaining > 0 {
			remaining--
			sched(delay/2+1, *self)
		}
	}
}

// batch schedules the same callbacks through ScheduleBatch on the real
// engine and a schedule-per-event loop on the reference: the documented
// equivalence under test.
func (d *diffDriver) batch(delay Duration, n int) {
	fns := make([]func(), n)
	for i := 0; i < n; i++ {
		id := d.nextID
		d.nextID++
		fns[i] = func() { d.realTrace = append(d.realTrace, diffFire{id: id, at: d.real.Now()}) }
		d.ref.schedule(delay, func() { d.refTrace = append(d.refTrace, diffFire{id: id, at: d.ref.now}) })
	}
	d.real.ScheduleBatch(delay, fns)
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
			d.realTrace = append(d.realTrace, diffFire{id: base + j, at: d.real.Now()})
			if j+1 < n {
				feed(j + 1)
			}
		})
	}
	feed(0)
	refStart := d.ref.now.Add(first)
	for j := 0; j < n; j++ {
		j := j
		d.ref.at(refStart.Add(Duration(j)*gap), func() {
			d.refTrace = append(d.refTrace, diffFire{id: base + j, at: d.ref.now})
		})
	}
}

// cancel cancels handle i%len on both sides (a no-op past the first
// cancel or after firing, on both).
func (d *diffDriver) cancel(i int) {
	if len(d.realRefs) == 0 {
		return
	}
	i %= len(d.realRefs)
	d.realRefs[i].Cancel()
	d.refRefs[i].canceled = true
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

// check compares the two firing traces and the clocks.
func (d *diffDriver) check() {
	d.t.Helper()
	if d.real.Now() != d.ref.now {
		d.t.Fatalf("clock diverged: engine %v, reference %v", d.real.Now(), d.ref.now)
	}
	if len(d.realTrace) != len(d.refTrace) {
		d.t.Fatalf("fired %d events on the engine, %d on the reference", len(d.realTrace), len(d.refTrace))
	}
	for i := range d.realTrace {
		if d.realTrace[i] != d.refTrace[i] {
			d.t.Fatalf("firing %d diverged: engine %+v, reference %+v", i, d.realTrace[i], d.refTrace[i])
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
		switch op % 11 {
		case 0, 1: // plain schedule, spread over a wide range
			delay := Duration(next())*17*Nanosecond + Duration(next())*Picosecond
			d.schedule(delay, 0, false)
		case 2: // cancelable schedule
			delay := Duration(next()) * 3 * Nanosecond
			d.schedule(delay, 0, true)
		case 3: // chained schedule (reschedules from inside its callback)
			d.schedule(Duration(next())*5*Nanosecond, int(next()%4), false)
		case 4: // same-instant batch vs per-event loop
			d.batch(Duration(next())*Nanosecond, int(next()%7))
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
		}
	}
	d.drain()
	d.check()
}

// FuzzLadderVsHeap drives the engine and the reference side by side;
// any divergence in firing order or clock is a crash. The added seeds
// double as the regression corpus for plain `go test`. (This harness
// was written against the ladder queue that preceded the indexed heap;
// the LadderVsHeap test names are kept so the suite's test IDs stay
// stable.)
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

// TestLadderVsHeapRandom gives the differential harness broad coverage
// in ordinary `go test` runs: many deterministic pseudo-random op
// streams, reserved arrival streams among them.
func TestLadderVsHeapRandom(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := benchRNG(seed * 0x9e3779b9)
			n := 200 + int(rng.next()%2000)
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.next())
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
	rng := benchRNG(0xf00d)
	for i := 0; i < 1500; i++ {
		d.schedule(Duration(rng.next()%1_000_000)*Picosecond, 0, true)
	}
	for i := 0; i < 6000; i++ {
		d.cancel(int(rng.next() % 8192))
		d.schedule(Duration(rng.next()%1_000_000)*Picosecond, 0, true)
		if rng.next()%8 == 0 {
			d.batch(Duration(rng.next()%1000)*Picosecond, int(rng.next()%4))
		}
	}
	d.drain()
	d.check()
}

// TestLadderVsHeapHighOccupancy pushes both engines through a large
// pending set with interleaved cancels and boundary RunUntils — the
// saturation regime the shape benchmarks measure.
func TestLadderVsHeapHighOccupancy(t *testing.T) {
	d := newDiffDriver(t)
	rng := benchRNG(0xdeadbeef)
	for i := 0; i < 20000; i++ {
		switch rng.next() % 16 {
		case 0:
			d.cancel(int(rng.next() % 4096))
		case 1:
			d.runUntil(Duration(rng.next() % 50000))
		case 2:
			d.schedule(Duration(rng.next()%1000), 2, false) // pico-scale ties
		case 3:
			d.batch(Duration(rng.next()%100)*Nanosecond, int(rng.next()%5))
		case 4:
			d.step()
		default:
			d.schedule(Duration(rng.next()%2_000_000)*Picosecond, 0, rng.next()%4 == 0)
		}
	}
	d.drain()
	d.check()
}

// TestLadderVsHeapReservedArrivals runs many reserved streams at once,
// with same-instant gaps and ties against ordinary schedules: the shape
// of the on-demand arrival drivers, checked against the reference that
// schedules every arrival up front.
func TestLadderVsHeapReservedArrivals(t *testing.T) {
	d := newDiffDriver(t)
	rng := benchRNG(0xa11)
	for i := 0; i < 3000; i++ {
		switch rng.next() % 8 {
		case 0:
			d.arrivals(Duration(rng.next()%4)*Nanosecond, Duration(rng.next()%3)*Nanosecond, 1+int(rng.next()%32))
		case 1:
			d.runUntil(Duration(rng.next()%20) * Nanosecond)
		case 2:
			d.cancel(int(rng.next() % 512))
		case 3:
			d.batch(Duration(rng.next()%4)*Nanosecond, int(rng.next()%4))
		case 4, 5:
			d.step()
		default:
			d.schedule(Duration(rng.next()%8)*Nanosecond, int(rng.next()%3), rng.next()%2 == 0)
		}
	}
	d.drain()
	d.check()
}
