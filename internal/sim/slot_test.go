package sim

import (
	"fmt"
	"testing"
)

// The next-event slot holds the earliest pending event beside the
// heap. These tests pin what a slot-resident event must keep of the
// Pending, Cancel and RunUntil contracts (recycle_test.go and
// reschedule_test.go check its EventRef); the order itself is checked
// against the reference by the LadderVsHeap differential.

// inSlot reports whether ref's event is the one in the slot.
func inSlot(e *Engine, ref EventRef) bool {
	return e.next.ev == ref.ev && ref.ev != nil && ref.ev.gen == ref.gen
}

// A slot-resident event counts in Pending; an earlier push takes the
// slot and the displaced event moves into the heap, still counted, and
// both fire in time order.
func TestPendingCountsSlotEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	late := e.Schedule(5*Nanosecond, func() { got = append(got, "late") })
	if !inSlot(e, late) || e.Pending() != 1 {
		t.Fatalf("first event: in slot %v, Pending %d; want true, 1", inSlot(e, late), e.Pending())
	}
	early := e.Schedule(2*Nanosecond, func() { got = append(got, "early") })
	if !inSlot(e, early) || inSlot(e, late) || e.Pending() != 2 {
		t.Fatalf("earlier event: in slot %v (displaced %v), Pending %d; want true, false, 2",
			inSlot(e, early), !inSlot(e, late), e.Pending())
	}
	e.Run()
	if want := "[early late]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

// Canceling the slot-resident event drops Pending at once and frees
// the slot: the next push that precedes the heap takes it.
func TestCancelSlotEventFreesSlot(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(10*Nanosecond, func() { got = append(got, "heap") })
	e.Schedule(20*Nanosecond, func() { got = append(got, "later") })
	victim := e.Schedule(5*Nanosecond, func() { t.Fatal("canceled slot event fired") })
	if !inSlot(e, victim) {
		t.Fatal("earliest event did not take the slot")
	}
	victim.Cancel()
	if e.Pending() != 2 || e.next.ev != nil {
		t.Fatalf("after cancel: Pending %d, slot taken %v; want 2, false", e.Pending(), e.next.ev != nil)
	}
	next := e.Schedule(7*Nanosecond, func() { got = append(got, "next") })
	if !inSlot(e, next) || e.Pending() != 3 {
		t.Fatalf("push after cancel: in slot %v, Pending %d; want true, 3", inSlot(e, next), e.Pending())
	}
	e.Run()
	if want := "[next heap later]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

// RunUntil stops short of a slot event due after t: the clock moves to
// t and the event stays pending in the slot.
func TestRunUntilStopsBeforeSlotEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	ref := e.Schedule(10*Nanosecond, func() { fired = true })
	e.RunUntil(Time(4 * Nanosecond))
	if fired || !inSlot(e, ref) || e.Pending() != 1 || e.Now() != Time(4*Nanosecond) {
		t.Fatalf("after RunUntil(4ns): fired %v, in slot %v, Pending %d, Now %v; want false, true, 1, 4ns",
			fired, inSlot(e, ref), e.Pending(), e.Now())
	}
	e.RunUntil(Time(10 * Nanosecond))
	if !fired || e.Pending() != 0 {
		t.Fatalf("after RunUntil(10ns): fired %v, Pending %d; want true, 0", fired, e.Pending())
	}
}
