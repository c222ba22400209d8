package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestServerSingleSlotSerializes(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "core", 1, nil)
	var done []Time
	for i := 0; i < 3; i++ {
		s.SubmitKeyed(0, 0, 10*Nanosecond, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []Time{Time(10 * Nanosecond), Time(20 * Nanosecond), Time(30 * Nanosecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
}

func TestServerParallelSlots(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "cores", 4, nil)
	var done []Time
	for i := 0; i < 4; i++ {
		s.SubmitKeyed(0, 0, 10*Nanosecond, func() { done = append(done, e.Now()) })
	}
	e.Run()
	for i, d := range done {
		if d != Time(10*Nanosecond) {
			t.Fatalf("job %d finished at %v, want 10ns (parallel)", i, d)
		}
	}
}

func TestServerFIFOOrder(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "core", 1, nil)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.SubmitKeyed(0, 0, Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("completion order %v not FIFO", order)
		}
	}
}

func TestServerWaitTimeAccounting(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "core", 1, nil)
	s.SubmitKeyed(0, 0, 10*Nanosecond, nil)
	s.SubmitKeyed(0, 0, 10*Nanosecond, nil) // waits 10 ns
	s.SubmitKeyed(0, 0, 10*Nanosecond, nil) // waits 20 ns
	e.Run()
	if s.WaitTime != 30*Nanosecond {
		t.Errorf("WaitTime = %v, want 30ns", s.WaitTime)
	}
	if s.BusyTime != 30*Nanosecond {
		t.Errorf("BusyTime = %v, want 30ns", s.BusyTime)
	}
	if s.Jobs != 3 {
		t.Errorf("Jobs = %d, want 3", s.Jobs)
	}
}

func TestServerChainedSubmission(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "core", 1, nil)
	var finish Time
	s.SubmitKeyed(0, 0, 5*Nanosecond, func() {
		s.SubmitKeyed(0, 0, 5*Nanosecond, func() { finish = e.Now() })
	})
	e.Run()
	if finish != Time(10*Nanosecond) {
		t.Errorf("chained finish = %v, want 10ns", finish)
	}
}

// Property: with k slots and n identical jobs of service time d submitted
// together, the makespan is ceil(n/k)*d.
func TestServerMakespanProperty(t *testing.T) {
	prop := func(slots, jobs uint8) bool {
		k := int(slots%8) + 1
		n := int(jobs%32) + 1
		e := NewEngine()
		s := NewServerDisc(e, "pool", k, nil)
		d := 7 * Nanosecond
		var last Time
		for i := 0; i < n; i++ {
			s.SubmitKeyed(0, 0, d, func() { last = e.Now() })
		}
		e.Run()
		waves := (n + k - 1) / k
		return last == Time(Duration(waves)*d)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: total busy time equals the sum of all service times regardless
// of slot count (work conservation).
func TestServerWorkConservationProperty(t *testing.T) {
	prop := func(seed int64, slots uint8) bool {
		k := int(slots%6) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		s := NewServerDisc(e, "pool", k, nil)
		var total Duration
		for i := 0; i < 20; i++ {
			d := Duration(rng.Int63n(100)+1) * Nanosecond
			total += d
			s.SubmitKeyed(0, 0, d, nil)
		}
		e.Run()
		return s.BusyTime == total
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestServerInvalidConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero slots")
		}
	}()
	NewServerDisc(NewEngine(), "bad", 0, nil)
}

func TestServerNegativeServicePanics(t *testing.T) {
	s := NewServerDisc(NewEngine(), "core", 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative service time")
		}
	}()
	s.SubmitKeyed(0, 0, -1, nil)
}
