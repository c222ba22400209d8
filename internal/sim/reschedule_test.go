package sim

import "testing"

// Reschedule is cancel+schedule in one call: the returned ref fires fn
// at the new time and the old timer is dead.
func TestRescheduleMovesTimer(t *testing.T) {
	e := NewEngine()
	var got []string
	var newAt Time
	ref := e.Schedule(5*Nanosecond, func() { got = append(got, "old") })
	e.Reschedule(ref, 2*Nanosecond, func() { got, newAt = append(got, "new"), e.Now() })
	e.Schedule(3*Nanosecond, func() { got = append(got, "mid") })
	e.Run()
	if len(got) != 2 || got[0] != "new" || got[1] != "mid" {
		t.Fatalf("fired %v, want [new mid]", got)
	}
	if newAt != Time(2*Nanosecond) {
		t.Fatalf("rescheduled timer fired at %v, want 2ns", newAt)
	}
}

// The in-place coalescing fast path (same firing time, event still the
// latest scheduled) must swap the callback without perturbing order or
// allocating, also for an event waiting in the next-event slot ahead
// of the heap.
func TestRescheduleCoalescesInPlace(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(9*Nanosecond, func() { got = append(got, "heap") })
	ref := e.Schedule(4*Nanosecond, func() { got = append(got, "a") })
	ref2 := e.Reschedule(ref, 4*Nanosecond, func() { got = append(got, "b") })
	if ref2 != ref {
		t.Fatal("same-time reschedule of the latest event did not coalesce")
	}
	if !inSlot(e, ref) || e.Pending() != 2 {
		t.Fatalf("in slot %v, Pending = %d; want true, 2", inSlot(e, ref), e.Pending())
	}
	e.Run()
	if len(got) != 2 || got[0] != "b" || got[1] != "heap" {
		t.Fatalf("fired %v, want [b heap]", got)
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
