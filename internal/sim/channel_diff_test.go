package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// The channel's order oracle. Channel.complete delivers a lone retiring
// transfer's done in place when nothing else is due at that instant
// (Engine.runNow); refChannel, on the reference engine, always delivers
// it through a scheduled same-instant event, as the channel once did.
// Both are driven through one script of transfers on 1–3 channels whose
// done callbacks start transfers, schedule zero-delay and later
// successors, cancel events and schedule reserved seqs, and every
// callback's order and time must match exactly.

// refChannel is Channel on the reference engine, with every done
// scheduled. Its arithmetic is Channel's, step for step, so the two
// predict bit-identical completion times.
type refChannel struct {
	e           *refEngine
	bytesPerSec float64
	active      []*refTransfer // start order
	lastUpdate  Time
	nextDone    *refEvent
}

type refTransfer struct {
	remaining float64
	done      func()
}

func (c *refChannel) start(n int64, done func()) {
	c.advance()
	c.active = append(c.active, &refTransfer{remaining: float64(n), done: done})
	c.reschedule()
}

func (c *refChannel) advance() {
	dt := c.e.now.Sub(c.lastUpdate)
	c.lastUpdate = c.e.now
	if dt <= 0 || len(c.active) == 0 {
		return
	}
	moved := c.bytesPerSec / float64(len(c.active)) * dt.Seconds()
	for _, t := range c.active {
		t.remaining -= moved
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
}

// reschedule is cancel + schedule, the contract Engine.Reschedule keeps.
func (c *refChannel) reschedule() {
	if c.nextDone != nil {
		c.e.cancel(c.nextDone)
		c.nextDone = nil
	}
	if len(c.active) == 0 {
		return
	}
	least := c.active[0].remaining
	for _, t := range c.active[1:] {
		if t.remaining < least {
			least = t.remaining
		}
	}
	share := c.bytesPerSec / float64(len(c.active))
	c.nextDone = c.e.at(c.e.now.Add(Duration(least/share*float64(Second))), c.complete)
}

func (c *refChannel) complete() {
	c.nextDone = nil
	c.advance()
	var finished, kept []*refTransfer
	for _, t := range c.active {
		if t.remaining < 1.0 {
			finished = append(finished, t)
		} else {
			kept = append(kept, t)
		}
	}
	c.active = kept
	c.reschedule()
	for _, t := range finished {
		if t.done != nil {
			c.e.at(c.e.now, t.done)
		}
	}
}

// refReservation is a Reservation of one seq on the reference engine.
type refReservation struct {
	seq  uint64
	used bool
}

// reservedAt mirrors Reservation.At's checks and schedules fn under the
// reserved seq.
func (e *refEngine) reservedAt(r *refReservation, t Time, fn func()) {
	if r.used {
		panic("reference: seq not reserved")
	}
	if t < e.now {
		panic("reference: scheduling into the past")
	}
	if t == e.lastAt && r.seq < e.lastSeq {
		panic("reference: reserved seq precedes the fired seq")
	}
	r.used = true
	e.live++
	heap.Push(&e.queue, &refEvent{at: t, seq: r.seq, fn: fn})
}

// chanSide is one engine with its channels under the differential.
// Handles are an EventRef or a *Reservation on the real side, a
// *refEvent or a *refReservation on the reference.
type chanSide interface {
	now() Time
	start(ch int, n int64, done func())
	at(t Time, fn func()) any
	cancel(h any)
	reserve() any
	reservedAt(h any, t Time, fn func())
	runUntil(t Time)
	run()
}

type realChanSide struct {
	e  *Engine
	ch []*Channel
}

func (s *realChanSide) now() Time                          { return s.e.Now() }
func (s *realChanSide) start(ch int, n int64, done func()) { s.ch[ch].Start(n, done) }
func (s *realChanSide) at(t Time, fn func()) any           { return s.e.At(t, fn) }
func (s *realChanSide) cancel(h any)                       { h.(EventRef).Cancel() }
func (s *realChanSide) reserve() any {
	r := s.e.Reserve(1)
	return &r
}
func (s *realChanSide) reservedAt(h any, t Time, fn func()) { h.(*Reservation).At(t, fn) }
func (s *realChanSide) runUntil(t Time)                     { s.e.RunUntil(t) }
func (s *realChanSide) run()                                { s.e.Run() }

type refChanSide struct {
	e  *refEngine
	ch []*refChannel
}

func (s *refChanSide) now() Time                          { return s.e.now }
func (s *refChanSide) start(ch int, n int64, done func()) { s.ch[ch].start(n, done) }
func (s *refChanSide) at(t Time, fn func()) any           { return s.e.at(t, fn) }
func (s *refChanSide) cancel(h any)                       { s.e.cancel(h.(*refEvent)) }
func (s *refChanSide) reserve() any {
	r := &refReservation{seq: s.e.seq}
	s.e.seq++
	return r
}
func (s *refChanSide) reservedAt(h any, t Time, fn func()) {
	s.e.reservedAt(h.(*refReservation), t, fn)
}
func (s *refChanSide) runUntil(t Time) { s.e.runUntil(t) }
func (s *refChanSide) run()            { s.e.run() }

// chanAct is what a callback does besides recording itself.
type chanAct struct {
	kind byte // actNone, actStart, ...
	ch   int
	size int64
	k    int // handle or reservation index
	d    Duration
	next *chanAct // the started transfer's own act (actStart)
}

const (
	actNone     = iota
	actStart    // start a transfer on ch
	actZero     // schedule a zero-delay successor
	actCancel   // cancel scheduled event k
	actReserved // schedule reservation k at now+d
	actLater    // schedule a successor at now+d
	numActs
)

// chanOp is one top-level step of a script.
type chanOp struct {
	kind byte // opStart, ...
	ch   int
	size int64
	d    Duration
	k    int
	acts []*chanAct // opStart: one; opBurst: one per channel
}

const (
	opStart   = iota // start a transfer
	opAt             // schedule an event at now+d
	opCancel         // cancel scheduled event k
	opReserve        // reserve one seq
	opAdvance        // run until now+d
	opBurst          // start one size on every channel at once
	numOps
)

// The tables keep sizes and delays commensurate, so completions on
// channels of 1, 2 and 4 GB/s and scheduled events collide often.
var (
	chanRates  = [...]float64{1e9, 2e9, 4e9}
	chanSizes  = [...]int64{0, 1, 512, 4096, 4096, 8192}
	chanDelays = [...]Duration{0, 0, Nanosecond, 512 * Nanosecond, 1024 * Nanosecond, 4096 * Nanosecond}
)

// chanScript decodes a byte stream into channel rates and ops.
type chanScript struct {
	rates []float64
	ops   []chanOp
}

func decodeChanScript(data []byte) chanScript {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return int(b)
	}
	var sc chanScript
	for n := 1 + next()%3; len(sc.rates) < n; {
		sc.rates = append(sc.rates, chanRates[next()%len(chanRates)])
	}
	var act func(depth int) *chanAct
	act = func(depth int) *chanAct {
		a := &chanAct{kind: byte(next() % numActs)}
		switch a.kind {
		case actStart:
			a.ch, a.size = next()%len(sc.rates), chanSizes[next()%len(chanSizes)]
			if depth > 0 {
				a.next = act(depth - 1)
			} else {
				a.next = &chanAct{}
			}
		case actCancel:
			a.k = next()
		case actReserved:
			a.k, a.d = next(), chanDelays[next()%len(chanDelays)]
		case actLater:
			a.d = chanDelays[next()%len(chanDelays)]
		}
		return a
	}
	for i < len(data) {
		op := chanOp{kind: byte(next() % numOps)}
		switch op.kind {
		case opStart:
			op.ch, op.size = next()%len(sc.rates), chanSizes[next()%len(chanSizes)]
			op.acts = []*chanAct{act(2)}
		case opAt:
			op.d = chanDelays[next()%len(chanDelays)]
		case opCancel:
			op.k = next()
		case opAdvance:
			op.d = Duration(next()%16) * 256 * Nanosecond
		case opBurst:
			op.size = chanSizes[next()%len(chanSizes)]
			for range sc.rates {
				op.acts = append(op.acts, act(1))
			}
		}
		sc.ops = append(sc.ops, op)
	}
	return sc
}

// chanFire is one traced callback: its id, its time, and for a
// reservation attempt whether it was refused.
type chanFire struct {
	id      int
	at      Time
	refused bool
}

// chanRun plays a script on one side and traces it.
type chanRun struct {
	side    chanSide
	trace   []chanFire
	events  []any // scheduled event handles, cancelable by index
	res     []any // reservations
	ids     int
	attempt int // reservation attempts, traced under negative ids
}

func (r *chanRun) record(id int) func() {
	return func() { r.trace = append(r.trace, chanFire{id: id, at: r.side.now()}) }
}

func (r *chanRun) newID() int {
	r.ids++
	return r.ids
}

func (r *chanRun) start(ch int, size int64, a *chanAct) {
	rec := r.record(r.newID())
	r.side.start(ch, size, func() {
		rec()
		r.do(a)
	})
}

func (r *chanRun) schedule(d Duration) {
	r.events = append(r.events, r.side.at(r.side.now().Add(d), r.record(r.newID())))
}

func (r *chanRun) cancel(k int) {
	if len(r.events) > 0 {
		r.side.cancel(r.events[k%len(r.events)])
	}
}

// reserved schedules reservation k at now+d, tracing whether the
// reservation refused it (a used seq, or one that precedes the event
// fired last at this instant).
func (r *chanRun) reserved(k int, d Duration) {
	if len(r.res) == 0 {
		return
	}
	r.attempt++
	refused := func() (refused bool) {
		defer func() { refused = recover() != nil }()
		r.side.reservedAt(r.res[k%len(r.res)], r.side.now().Add(d), r.record(r.newID()))
		return false
	}()
	r.trace = append(r.trace, chanFire{id: -r.attempt, at: r.side.now(), refused: refused})
}

func (r *chanRun) do(a *chanAct) {
	switch a.kind {
	case actStart:
		r.start(a.ch, a.size, a.next)
	case actZero:
		r.schedule(0)
	case actCancel:
		r.cancel(a.k)
	case actReserved:
		r.reserved(a.k, a.d)
	case actLater:
		r.schedule(a.d)
	}
}

func (r *chanRun) play(sc chanScript) {
	for _, op := range sc.ops {
		switch op.kind {
		case opStart:
			r.start(op.ch, op.size, op.acts[0])
		case opAt:
			r.schedule(op.d)
		case opCancel:
			r.cancel(op.k)
		case opReserve:
			r.res = append(r.res, r.side.reserve())
		case opAdvance:
			r.side.runUntil(r.side.now().Add(op.d))
		case opBurst:
			for ch, a := range op.acts {
				r.start(ch, op.size, a)
			}
		}
	}
	r.side.run()
}

// channelVsReference plays data on both sides and fails on the first
// difference in callback order, time or reservation outcome. It returns
// how many callbacks the real engine ran in place.
func channelVsReference(t *testing.T, data []byte) uint64 {
	t.Helper()
	sc := decodeChanScript(data)
	real := &realChanSide{e: NewEngine()}
	ref := &refChanSide{e: &refEngine{}}
	for i, bw := range sc.rates {
		real.ch = append(real.ch, NewChannel(real.e, fmt.Sprintf("c%d", i), bw))
		ref.ch = append(ref.ch, &refChannel{e: ref.e, bytesPerSec: bw})
	}
	runs := [2]*chanRun{{side: real}, {side: ref}}
	for _, r := range runs {
		r.play(sc)
	}
	got, want := runs[0].trace, runs[1].trace
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("callback %d: channel %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d callbacks on the channel, %d on the reference", len(got), len(want))
	}
	if real.e.Now() != ref.e.now {
		t.Fatalf("clock: channel %v, reference %v", real.e.Now(), ref.e.now)
	}
	return uint64(ref.e.fired) - real.e.Fired()
}

// FuzzChannelVsReference drives Channel against refChannel. The seeds
// double as the regression corpus for plain `go test`.
func FuzzChannelVsReference(f *testing.F) {
	f.Add([]byte{})
	// Two links of one rate drain 4 KiB each at one instant, as a
	// two-link route does: the first completion finds the second due
	// and queues its done; the second finds that done due and queues
	// too. Their dones start a transfer and schedule a zero-delay
	// successor.
	f.Add([]byte{1, 0, 0, opBurst, 3, actStart, 0, 3, actNone, actZero})
	// The same with a reserved seq: the done schedules it at its own
	// instant (refused, it precedes the seq fired last) and later.
	f.Add([]byte{1, 0, 0, opReserve, opReserve, opBurst, 3, actReserved, 0, 0, actReserved, 1, 3})
	// A lone transfer whose done runs in place and starts the next one
	// on the same channel, and another whose completion collides with a
	// scheduled event, so it is queued; a done cancels that event.
	f.Add([]byte{0, 0, opStart, 0, 3, actStart, 0, 3, actCancel, 0, opAt, 5, opStart, 0, 2, actCancel, 0})
	// Three channels at 1, 2 and 4 GB/s: 4 KiB on the first, 2 KiB
	// worth on the others, zero- and one-byte transfers, an advance
	// between.
	f.Add([]byte{2, 0, 1, 2, opStart, 0, 3, actLater, 4, opStart, 1, 2, actZero, opStart, 2, 0, actNone,
		opAdvance, 2, opBurst, 1, actZero, actReserved, 0, 0, actStart, 1, 5, actNone, opStart, 2, 5, actZero})
	f.Fuzz(func(t *testing.T, data []byte) {
		channelVsReference(t, data)
	})
}

// TestChannelVsReferenceRandom gives the differential broad coverage in
// ordinary `go test` runs, and checks that the in-place path ran.
func TestChannelVsReferenceRandom(t *testing.T) {
	var inPlace uint64
	for seed := uint64(1); seed <= 60; seed++ {
		rng := Stream(seed * 0x9e3779b9)
		data := make([]byte, 20+int(rng.Uint64()%400))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		inPlace += channelVsReference(t, data)
	}
	if inPlace == 0 {
		t.Error("no done ran in place")
	}
	t.Logf("%d dones ran in place", inPlace)
}
