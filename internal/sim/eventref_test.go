package sim

import "testing"

// EventRef edge cases around the eager-purge Cancel and the recycle
// generation scheme: double-Cancel, Cancel racing the generation bump
// from inside a firing callback, and Pending's live-events-only
// contract.

// Double-Cancel: the first Cancel purges and recycles the event (gen
// bump); the second must be a stale no-op — in particular it must not
// touch a new event that has since claimed the recycled slot.
func TestDoubleCancelIsInert(t *testing.T) {
	e := NewEngine()
	ref := e.Schedule(Nanosecond, func() { t.Fatal("canceled event fired") })
	ref.Cancel()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancel, want 0", e.Pending())
	}
	// B claims A's recycled slot.
	fired := false
	e.Schedule(Nanosecond, func() { fired = true })
	ref.Cancel() // second cancel: stale, must not kill B
	e.Run()
	if !fired {
		t.Fatal("double-Cancel killed the recycled slot's new event")
	}
}

// Cancel from inside the firing callback of the very event being fired:
// the engine bumps the recycle generation before running the callback,
// so the self-Cancel must lose the race and no-op — even after the
// slot has been reused by a Schedule made earlier in the same callback.
func TestCancelInsideFiringCallbackIsInert(t *testing.T) {
	e := NewEngine()
	var selfRef EventRef
	fired := []string{}
	selfRef = e.Schedule(Nanosecond, func() {
		// Reuse the just-recycled slot first, then try the stale cancel.
		e.Schedule(Nanosecond, func() { fired = append(fired, "B") })
		selfRef.Cancel() // stale: A is mid-fire, gen already bumped
		fired = append(fired, "A")
	})
	e.Run()
	if len(fired) != 2 || fired[0] != "A" || fired[1] != "B" {
		t.Fatalf("fired = %v, want [A B]", fired)
	}
}

// Canceling another live event from inside a firing callback must purge
// it for real (it never fires, Pending drops at once).
func TestCancelOtherFromInsideCallback(t *testing.T) {
	e := NewEngine()
	var victim EventRef
	victim = e.Schedule(2*Nanosecond, func() { t.Fatal("victim fired") })
	e.Schedule(Nanosecond, func() {
		victim.Cancel()
		if e.Pending() != 0 {
			t.Fatalf("Pending = %d inside callback after cancel, want 0", e.Pending())
		}
	})
	e.Run()
	if e.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", e.Fired())
	}
}

// Pending counts live events only: cancels leave the count immediately,
// with no Step needed to flush tombstones (there are none).
func TestPendingExcludesCanceled(t *testing.T) {
	e := NewEngine()
	refs := make([]EventRef, 6)
	for i := range refs {
		refs[i] = e.Schedule(Duration(i+1)*Nanosecond, func() {})
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", e.Pending())
	}
	refs[1].Cancel()
	refs[4].Cancel()
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d after two cancels, want 4", e.Pending())
	}
	refs[1].Cancel() // double-cancel must not double-count
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d after double cancel, want 4", e.Pending())
	}
	e.Step()
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after one fire, want 3", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 || e.Fired() != 4 {
		t.Fatalf("Pending = %d, Fired = %d after drain, want 0 and 4", e.Pending(), e.Fired())
	}
}

// A canceled event's node goes straight back to the free list: the
// cancel/schedule churn loop must not allocate.
func TestCancelPurgeDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	ref := e.Schedule(Nanosecond, nop)
	avg := testing.AllocsPerRun(1000, func() {
		ref.Cancel()
		ref = e.Schedule(Nanosecond, nop)
	})
	if avg != 0 {
		t.Fatalf("cancel/schedule churn allocates %.1f per op, want 0", avg)
	}
}

// The schedule/fire loop must stay allocation-free at high occupancy
// too: with a four-figure pending set every schedule and fire sifts
// through several heap levels, all on recycled storage.
func TestEngineHighOccupancySteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	rng := Stream(7)
	nop := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(delayUniform(&rng), nop)
	}
	for i := 0; i < 8192; i++ { // warm through several full epochs
		e.Schedule(delayUniform(&rng), nop)
		e.Step()
	}
	avg := testing.AllocsPerRun(5000, func() {
		e.Schedule(delayUniform(&rng), nop)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("high-occupancy schedule/fire allocates %.1f per op, want 0", avg)
	}
}
