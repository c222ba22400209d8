package sim

import (
	"fmt"
	"testing"
)

// ScheduleBatch fires its callbacks in slice order, interleaved with
// other events by the usual (time, seq) order — exactly as if Schedule
// had been called once per callback.
func TestScheduleBatchOrder(t *testing.T) {
	e := NewEngine()
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }
	e.Schedule(Nanosecond, log("early"))
	e.ScheduleBatch(2*Nanosecond, []func(){log("b0"), log("b1"), log("b2")})
	e.Schedule(2*Nanosecond, log("after-batch")) // same instant, later seq
	e.Schedule(3*Nanosecond, log("late"))
	e.Run()
	want := []string{"early", "b0", "b1", "b2", "after-batch", "late"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestScheduleBatchEmptyAndErrors(t *testing.T) {
	e := NewEngine()
	e.ScheduleBatch(Nanosecond, nil) // no-op
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after empty batch, want 0", e.Pending())
	}
	for name, call := range map[string]func(){
		"negative delay": func() { e.ScheduleBatch(-1, []func(){func() {}}) },
		"nil callback":   func() { e.ScheduleBatch(Nanosecond, []func(){nil}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// Same-instant batches filed into a deep pending set, near the root and
// far below it, must all fire in slice order.
func TestScheduleBatchAcrossTiers(t *testing.T) {
	e := NewEngine()
	rng := benchRNG(11)
	var got []int
	id := 0
	// Build a deep, multi-epoch pending set first.
	for i := 0; i < 3000; i++ {
		e.Schedule(delayUniform(&rng), func() {})
	}
	for len(got) < 64 {
		fns := make([]func(), 4)
		for j := range fns {
			v := id
			id++
			fns[j] = func() { got = append(got, v) }
		}
		e.ScheduleBatch(Duration(rng.next()%2_000_000)*Picosecond, fns)
		for i := 0; i < 40; i++ {
			e.Step()
		}
	}
	e.Run()
	// Members of one batch share an instant, so they must fire as a
	// contiguous ascending run (batches may interleave with each other
	// freely — their delays differ).
	lastOf := map[int]int{} // batch → last member seen
	for _, v := range got {
		b, m := v/4, v%4
		if last, ok := lastOf[b]; ok && m != last+1 {
			t.Fatalf("batch %d fired member %d after %d: %v", b, m, last, got)
		} else if !ok && m != 0 {
			t.Fatalf("batch %d started at member %d: %v", b, m, got)
		}
		lastOf[b] = m
	}
}

// Reschedule is cancel+schedule in one call: the returned ref fires fn
// at the new time and the old timer is dead.
func TestRescheduleMovesTimer(t *testing.T) {
	e := NewEngine()
	var got []string
	ref := e.Schedule(5*Nanosecond, func() { got = append(got, "old") })
	ref = e.Reschedule(ref, 2*Nanosecond, func() { got = append(got, "new") })
	e.Schedule(3*Nanosecond, func() { got = append(got, "mid") })
	e.Run()
	if len(got) != 2 || got[0] != "new" || got[1] != "mid" {
		t.Fatalf("fired %v, want [new mid]", got)
	}
	if ref.Time() != Time(2*Nanosecond) {
		t.Fatalf("ref.Time = %v, want 2ns", ref.Time())
	}
}

// The in-place coalescing fast path (same firing time, event still the
// latest scheduled) must swap the callback without perturbing order or
// allocating.
func TestRescheduleCoalescesInPlace(t *testing.T) {
	e := NewEngine()
	var got []string
	ref := e.Schedule(4*Nanosecond, func() { got = append(got, "a") })
	ref2 := e.Reschedule(ref, 4*Nanosecond, func() { got = append(got, "b") })
	if ref2 != ref {
		t.Fatal("same-time reschedule of the latest event did not coalesce")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("fired %v, want [b]", got)
	}
}

// Rescheduling a stale (already fired or canceled) ref degrades to a
// plain schedule.
func TestRescheduleStaleRef(t *testing.T) {
	e := NewEngine()
	fired := 0
	ref := e.Schedule(Nanosecond, func() { fired++ })
	e.Run()
	ref = e.Reschedule(ref, Nanosecond, func() { fired += 10 })
	e.Run()
	if fired != 11 {
		t.Fatalf("fired = %d, want 11", fired)
	}
	_ = ref
}

// SubmitBatch must be observably identical to a SubmitClass loop: same
// completion order, same server accounting, with queued overflow served
// under the same discipline order.
func TestServerSubmitBatchMatchesLoop(t *testing.T) {
	run := func(batch bool) (order []int, jobs int64, busy, wait Duration, maxq int) {
		e := NewEngine()
		s := NewServer(e, "srv", 3)
		var dones []func()
		for i := 0; i < 10; i++ {
			i := i
			dones = append(dones, func() { order = append(order, i) })
		}
		if batch {
			s.SubmitBatch(0, 5*Nanosecond, dones)
		} else {
			for _, d := range dones {
				s.SubmitClass(0, 5*Nanosecond, d)
			}
		}
		e.Run()
		return order, s.Jobs, s.BusyTime, s.WaitTime, s.MaxQueue
	}
	bo, bj, bb, bw, bq := run(true)
	lo, lj, lb, lw, lq := run(false)
	if fmt.Sprint(bo) != fmt.Sprint(lo) {
		t.Fatalf("completion order: batch %v, loop %v", bo, lo)
	}
	if bj != lj || bb != lb || bw != lw || bq != lq {
		t.Fatalf("accounting diverged: batch (%d %v %v %d), loop (%d %v %v %d)",
			bj, bb, bw, bq, lj, lb, lw, lq)
	}
}

func TestServerSubmitBatchNegativeServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative service time")
		}
	}()
	e := NewEngine()
	NewServer(e, "srv", 1).SubmitBatch(0, -1, []func(){func() {}})
}

// A channel retiring several equal transfers at one instant drives the
// batch path end to end: all completions fire, in Start order.
func TestChannelSimultaneousCompletionBatch(t *testing.T) {
	e := NewEngine()
	ch := NewChannel(e, "c", 1e9)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		ch.Start(1<<20, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != 5 {
		t.Fatalf("completed %d transfers, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("completions out of Start order: %v", got)
		}
	}
}
