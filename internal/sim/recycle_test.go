package sim

import "testing"

// A fired event's node is reused by later Schedule calls. A stale
// EventRef held across the fire must not be able to cancel the node's
// new occupant, here waiting in the engine's next-event slot.
func TestStaleEventRefCancelIsInert(t *testing.T) {
	e := NewEngine()
	var fired []string
	refA := e.Schedule(Nanosecond, func() { fired = append(fired, "A") })
	if !e.Step() {
		t.Fatal("A did not fire")
	}
	// B reuses A's recycled event object.
	refB := e.Schedule(Nanosecond, func() { fired = append(fired, "B") })
	if refB.ev != refA.ev || !inSlot(e, refB) {
		t.Fatal("B did not reuse A's event in the next-event slot")
	}
	refA.Cancel() // stale: A already fired
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after a stale cancel, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 2 || fired[0] != "A" || fired[1] != "B" {
		t.Fatalf("fired = %v, want [A B]", fired)
	}
}

func TestZeroEventRefCancelIsNoop(t *testing.T) {
	var r EventRef
	r.Cancel() // must not panic
}

// Canceled-then-discarded events are recycled too; scheduling afterwards
// must reuse them without resurrecting the canceled state.
func TestCanceledEventSlotIsReusable(t *testing.T) {
	e := NewEngine()
	ref := e.Schedule(Nanosecond, func() { t.Fatal("canceled event fired") })
	ref.Cancel()
	e.Run() // discards + recycles
	fired := false
	e.Schedule(Nanosecond, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("recycled slot did not fire its new event")
	}
}

// The steady-state schedule/fire loop must not allocate once the free
// list is warm, nor must a chain of zero-delay successors, each pushed
// by its predecessor's callback into the next-event slot.
func TestEngineSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	e.Schedule(Nanosecond, nop)
	e.Step()
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(Nanosecond, nop)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule/fire allocates %.1f per op, want 0", avg)
	}

	links, slotted := 0, 0
	var link func()
	link = func() {
		if links == 0 {
			return
		}
		links--
		if inSlot(e, e.Schedule(0, link)) {
			slotted++
		}
	}
	e.Schedule(Nanosecond, nop) // a later event keeps the heap non-empty
	avg = testing.AllocsPerRun(1000, func() {
		links = 8
		e.Schedule(0, link)
		e.Step()
		for links > 0 {
			e.Step()
		}
		e.Step() // the last link schedules nothing
	})
	if avg != 0 {
		t.Fatalf("zero-delay successor chain allocates %.1f per run, want 0", avg)
	}
	if slotted != 8*1001 {
		t.Fatalf("%d of %d successors took the slot, want all", slotted, 8*1001)
	}
}

// The channel's start/complete/restart loop must be allocation-free in
// steady state (events and transfers both come from free lists).
func TestChannelSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	ch := NewChannel(e, "c", 1e9)
	ch.Start(1e3, nil)
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		ch.Start(1e3, nil)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("channel round allocates %.1f per op, want 0", avg)
	}
}
