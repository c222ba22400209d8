package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChannelSingleTransferRate(t *testing.T) {
	e := NewEngine()
	ch := NewChannel(e, "link", 1e9) // 1 GB/s
	var doneAt Time
	ch.Start(1e9, func() { doneAt = e.Now() })
	e.Run()
	if got := Duration(doneAt).Seconds(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("1GB at 1GB/s finished at %vs, want 1s", got)
	}
}

func TestChannelFairShareTwoEqualTransfers(t *testing.T) {
	e := NewEngine()
	ch := NewChannel(e, "link", 1e9)
	var at [2]Time
	ch.Start(5e8, func() { at[0] = e.Now() })
	ch.Start(5e8, func() { at[1] = e.Now() })
	e.Run()
	// Two 0.5 GB transfers sharing 1 GB/s each see 0.5 GB/s: both take 1 s.
	for i, got := range at {
		if math.Abs(Duration(got).Seconds()-1.0) > 1e-6 {
			t.Errorf("transfer %d finished at %vs, want 1s", i, Duration(got).Seconds())
		}
	}
}

func TestChannelLateArrivalSlowsFirst(t *testing.T) {
	e := NewEngine()
	ch := NewChannel(e, "link", 1e9)
	var first, second Time
	ch.Start(1e9, func() { first = e.Now() })
	// After 0.5 s the first transfer has 0.5 GB left; a second equal-size
	// transfer halves its rate.
	e.Schedule(FromSeconds(0.5), func() {
		ch.Start(1e9, func() { second = e.Now() })
	})
	e.Run()
	// First: 0.5s alone + 1.0s shared = 1.5s total.
	if math.Abs(Duration(first).Seconds()-1.5) > 1e-6 {
		t.Errorf("first finished at %vs, want 1.5s", Duration(first).Seconds())
	}
	// Second: 1.0 GB = 0.5 GB shared (1.0s) + 0.5 GB alone (0.5s) → at 2.0s.
	if math.Abs(Duration(second).Seconds()-2.0) > 1e-6 {
		t.Errorf("second finished at %vs, want 2.0s", Duration(second).Seconds())
	}
}

func TestChannelZeroByteTransferCompletes(t *testing.T) {
	e := NewEngine()
	ch := NewChannel(e, "link", 1e9)
	done := false
	ch.Start(0, func() { done = true })
	e.Run()
	if !done {
		t.Error("zero-byte transfer never completed")
	}
}

func TestChannelCompletionOrderDeterministic(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		ch := NewChannel(e, "link", 1e9)
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			ch.Start(1e6, func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] || a[i] != i {
			t.Fatalf("nondeterministic or non-FIFO completion: %v vs %v", a, b)
		}
	}
}

func TestChannelAccounting(t *testing.T) {
	e := NewEngine()
	ch := NewChannel(e, "link", 2e9)
	ch.Start(1e9, nil)
	ch.Start(1e9, nil)
	e.Run()
	if ch.TotalBytes != 2e9 {
		t.Errorf("TotalBytes = %d, want 2e9", ch.TotalBytes)
	}
	if math.Abs(ch.BusyTime.Seconds()-1.0) > 1e-6 {
		t.Errorf("BusyTime = %v, want 1s", ch.BusyTime)
	}
}

// Property: work conservation — N concurrent transfers totalling B bytes
// through a channel of capacity C finish no earlier than B/C and, when all
// start at time zero, the last finishes at exactly B/C (within float slop).
func TestChannelWorkConservationProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%8) + 1
		e := NewEngine()
		cap := 1e9
		ch := NewChannel(e, "link", cap)
		var total int64
		var lastDone Time
		for i := 0; i < count; i++ {
			size := rng.Int63n(1e8) + 1e6
			total += size
			ch.Start(size, func() {
				if e.Now() > lastDone {
					lastDone = e.Now()
				}
			})
		}
		e.Run()
		want := float64(total) / cap
		got := Duration(lastDone).Seconds()
		return math.Abs(got-want) < 1e-3*want+1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestChannelInvalidConstruction(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero-capacity channel")
		}
	}()
	NewChannel(e, "bad", 0)
}

// A channel retiring several equal transfers at one instant schedules
// every completion at that instant: all fire, in Start order.
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

// A lone completion with nothing else due runs its done in place, under
// the key its queued event would have had: now and the newest seq. Only
// the completion event counts as fired.
func TestChannelDoneInPlaceTakesItsKey(t *testing.T) {
	e := NewEngine()
	ch := NewChannel(e, "c", 1e9)
	ran := false
	ch.Start(4096, func() {
		ran = true
		if want := (entry{at: e.Now(), seq: e.seq - 1}); e.last != want {
			t.Errorf("done ran after key %+v, want %+v", e.last, want)
		}
	})
	e.Run()
	if !ran || e.Fired() != 1 {
		t.Errorf("done ran %v, %d events fired; want true and 1", ran, e.Fired())
	}
}
