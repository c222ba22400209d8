package sim

import "testing"

// A held slot stays occupied across the gap: queued work waits until the
// resumed segment finishes, and BusyTime counts only the two service
// segments, never the residency gap.
func TestHoldResumeOccupiesSlot(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "drx", 1, nil)
	var events []string
	var when []Time
	note := func(what string) {
		events = append(events, what)
		when = append(when, e.Now())
	}
	s.SubmitKeyedHold(0, 0, 10*Nanosecond, func(h *Hold) {
		note("part1")
		// Resident for 5ns, then run the second segment.
		e.Schedule(5*Nanosecond, func() {
			h.Resume(7*Nanosecond, func() { note("part2") })
		})
	})
	s.SubmitKeyed(0, 0, 3*Nanosecond, func() { note("queued") })
	e.Run()

	wantEv := []string{"part1", "part2", "queued"}
	wantAt := []Time{Time(10 * Nanosecond), Time(22 * Nanosecond), Time(25 * Nanosecond)}
	for i := range wantEv {
		if i >= len(events) || events[i] != wantEv[i] || when[i] != wantAt[i] {
			t.Fatalf("events %v at %v, want %v at %v", events, when, wantEv, wantAt)
		}
	}
	if s.Jobs != 3 {
		t.Errorf("Jobs = %d, want 3", s.Jobs)
	}
	// 10 + 7 + 3, excluding the 5ns residency gap.
	if s.BusyTime != 20*Nanosecond {
		t.Errorf("BusyTime = %v, want 20ns", s.BusyTime)
	}
	// The queued job waited from t=0 to t=22.
	if s.WaitTime != 22*Nanosecond {
		t.Errorf("WaitTime = %v, want 22ns", s.WaitTime)
	}
}

// Release frees the held slot without a second segment and pulls queued
// work into service immediately.
func TestHoldReleaseFreesSlot(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "drx", 1, nil)
	var queuedAt Time
	s.SubmitKeyedHold(0, 0, 10*Nanosecond, func(h *Hold) {
		e.Schedule(4*Nanosecond, func() { h.Release() })
	})
	s.SubmitKeyed(0, 0, 2*Nanosecond, func() { queuedAt = e.Now() })
	e.Run()
	if queuedAt != Time(16*Nanosecond) {
		t.Errorf("queued job finished at %v, want 16ns (release at 14 + 2 service)", queuedAt)
	}
	if s.Jobs != 2 {
		t.Errorf("Jobs = %d, want 2", s.Jobs)
	}
	if s.BusyTime != 12*Nanosecond {
		t.Errorf("BusyTime = %v, want 12ns", s.BusyTime)
	}
}

// A hold job that queues behind busy slots enters service under the
// discipline like any other submission.
func TestHoldQueuesLikeAnyJob(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "drx", 1, nil)
	s.SubmitKeyed(0, 0, 10*Nanosecond, nil)
	var part1 Time
	s.SubmitKeyedHold(0, 0, 5*Nanosecond, func(h *Hold) {
		part1 = e.Now()
		h.Release()
	})
	e.Run()
	if part1 != Time(15*Nanosecond) {
		t.Errorf("held job's first segment finished at %v, want 15ns", part1)
	}
}

func TestHoldSpentPanics(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "drx", 1, nil)
	var h *Hold
	s.SubmitKeyedHold(0, 0, Nanosecond, func(got *Hold) {
		h = got
		got.Release()
	})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Resume on a spent hold did not panic")
		}
	}()
	h.Resume(Nanosecond, nil)
}
