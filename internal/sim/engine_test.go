package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*Nanosecond, func() { got = append(got, 3) })
	e.Schedule(10*Nanosecond, func() { got = append(got, 1) })
	e.Schedule(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(30*Nanosecond) {
		t.Errorf("Now = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(Nanosecond, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if e.Fired() != 0 {
		t.Errorf("Fired = %d, want 0", e.Fired())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var depth int
	var schedule func()
	schedule = func() {
		depth++
		if depth < 5 {
			e.Schedule(Nanosecond, schedule)
		}
	}
	e.Schedule(0, schedule)
	e.Run()
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
	if e.Now() != Time(4*Nanosecond) {
		t.Errorf("Now = %v, want 4ns", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(10*Nanosecond, func() { fired = append(fired, 1) })
	e.Schedule(20*Nanosecond, func() { fired = append(fired, 2) })
	e.RunUntil(Time(15 * Nanosecond))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if e.Now() != Time(15*Nanosecond) {
		t.Errorf("Now = %v, want 15ns", e.Now())
	}
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both events", fired)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEnginePastSchedulePanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*Nanosecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("no panic scheduling into the past")
		}
	}()
	e.At(Time(5*Nanosecond), func() {})
}

// A reserved seq keeps its place in the order however late it is
// scheduled: the reserved event fires before a later-issued event at
// the same instant, exactly as if it had been scheduled at Reserve.
func TestReservedSeqKeepsItsPlace(t *testing.T) {
	e := NewEngine()
	var got []string
	res := e.Reserve(2)
	e.Schedule(5*Nanosecond, func() { got = append(got, "plain") })
	res.At(Time(Nanosecond), func() {
		got = append(got, "r0")
		res.At(Time(5*Nanosecond), func() { got = append(got, "r1") })
	})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d before the run, want 2 (one reserved event fed so far)", e.Pending())
	}
	e.Run()
	if want := []string{"r0", "r1", "plain"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// Scheduling through a reservation panics when the seq it would use was
// never reserved (the zero Reservation, or a block already used up), on
// a time before the clock, on a nil callback, and on a key that would
// fire before the event now running.
func TestReservationPanics(t *testing.T) {
	nop := func() {}
	for _, tc := range []struct {
		name, want string
		call       func()
	}{
		{"zero reservation", "not reserved", func() {
			var r Reservation
			r.At(0, nop)
		}},
		{"block used up", "not reserved", func() {
			r := NewEngine().Reserve(1)
			r.At(0, nop)
			r.At(0, nop)
		}},
		{"empty block", "not reserved", func() {
			r := NewEngine().Reserve(0)
			r.At(0, nop)
		}},
		{"negative size", "negative reservation", func() { NewEngine().Reserve(-1) }},
		{"past time", "into the past", func() {
			e := NewEngine()
			r := e.Reserve(1)
			e.RunUntil(Time(10 * Nanosecond))
			r.At(Time(5*Nanosecond), nop)
		}},
		{"nil callback", "nil event callback", func() {
			r := NewEngine().Reserve(1)
			r.At(0, nil)
		}},
		{"behind the firing event", "precedes the fired seq", func() {
			e := NewEngine()
			r := e.Reserve(1)
			e.Schedule(0, func() { r.At(0, nop) }) // reserved seq 0 < this event's seq 1
			e.Run()
		}},
	} {
		func() {
			defer func() {
				got := fmt.Sprint(recover())
				if !strings.Contains(got, tc.want) {
					t.Errorf("%s: panic %q, want one containing %q", tc.name, got, tc.want)
				}
			}()
			tc.call()
		}()
	}
}

// Property: regardless of insertion order, events fire in nondecreasing
// time order and the clock never moves backwards.
func TestEngineMonotonicClockProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%64) + 1
		var last Time
		ok := true
		for i := 0; i < count; i++ {
			e.Schedule(Duration(rng.Int63n(1000))*Nanosecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && e.Fired() == uint64(count)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: two engines fed the same schedule produce identical firing
// sequences (determinism).
func TestEngineDeterminismProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		count := int(n%50) + 1
		run := func() []Time {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			var trace []Time
			for i := 0; i < count; i++ {
				e.Schedule(Duration(rng.Int63n(500))*Nanosecond, func() {
					trace = append(trace, e.Now())
				})
			}
			e.Run()
			return trace
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000000s"},
		{-Nanosecond, "-1.000ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestBytesAt(t *testing.T) {
	// 25 GB moved at 25 GB/s takes one second.
	if got := BytesAt(25e9, 25e9); got != Second {
		t.Errorf("BytesAt = %v, want 1s", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero rate")
		}
	}()
	BytesAt(1, 0)
}
