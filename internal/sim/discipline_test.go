package sim

import (
	"math"
	"sort"
	"testing"
)

func drain(d Discipline) []int {
	var classes []int
	for {
		j, ok := d.Pop()
		if !ok {
			return classes
		}
		classes = append(classes, j.Class)
	}
}

func TestFIFOOrdersByArrival(t *testing.T) {
	q := NewFIFO()
	for i := 0; i < 20; i++ {
		q.Push(Job{Class: i, seq: uint64(i)})
	}
	if q.Len() != 20 {
		t.Fatalf("Len = %d, want 20", q.Len())
	}
	got := drain(q)
	for i, c := range got {
		if c != i {
			t.Fatalf("pop %d yielded class %d, want arrival order", i, c)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("empty FIFO popped a job")
	}
}

// The ring must survive many wrap-arounds without losing order: the old
// slice-based queue stranded head capacity; the ring reuses it.
func TestFIFOWrapsWithoutStrandingCapacity(t *testing.T) {
	q := NewFIFO()
	next, want := 0, 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			q.Push(Job{Class: next, seq: uint64(next)})
			next++
		}
		for i := 0; i < 3; i++ {
			j, ok := q.Pop()
			if !ok || j.Class != want {
				t.Fatalf("round %d: popped %v (ok=%v), want class %d", round, j.Class, ok, want)
			}
			want++
		}
	}
	// 3 in flight at a time: the ring must have stayed at its minimum
	// size instead of growing with every wrap.
	if len(q.ring) != 8 {
		t.Fatalf("ring grew to %d slots for a depth-3 workload", len(q.ring))
	}
}

// Pop must zero the vacated slot so the job's done closure is released
// immediately, not pinned until the ring wraps.
func TestFIFOPopReleasesClosure(t *testing.T) {
	q := NewFIFO()
	q.Push(Job{done: func() {}})
	q.Pop()
	if q.ring[0].done != nil {
		t.Fatal("popped slot still pins the done closure")
	}
}

// The steady-state push/pop cycle must not allocate once the ring is
// warm (the server dequeue path runs inside the DES hot loop).
func TestFIFOSteadyStateDoesNotAllocate(t *testing.T) {
	q := NewFIFO()
	j := Job{Service: Nanosecond}
	for i := 0; i < 16; i++ {
		q.Push(j)
	}
	for i := 0; i < 16; i++ {
		q.Pop()
	}
	avg := testing.AllocsPerRun(1000, func() {
		q.Push(j)
		q.Push(j)
		q.Pop()
		q.Pop()
	})
	if avg != 0 {
		t.Fatalf("FIFO push/pop allocates %.1f per op, want 0", avg)
	}
}

func TestPriorityServesLowestValueFirstTiesInOrder(t *testing.T) {
	// Class 0 → prio 2, class 1 → prio 1, class 2 → a default past both.
	prio := map[int]int64{0: 2, 1: 1, 2: 1 << 20}
	q := new(Keyed)
	pushes := []int{0, 2, 1, 0, 1, 2}
	for i, c := range pushes {
		q.Push(Job{Class: c, Key: prio[c], seq: uint64(i)})
	}
	got := drain(q)
	want := []int{1, 1, 0, 0, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", got, want)
		}
	}
}

func TestPriorityEqualKeysPreserveSubmissionOrder(t *testing.T) {
	q := new(Keyed)
	for i := 0; i < 30; i++ {
		q.Push(Job{Class: i % 3, Key: 5, Service: Duration(i), seq: uint64(i)})
	}
	var prev uint64
	for i := 0; i < 30; i++ {
		j, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		if i > 0 && j.seq < prev {
			t.Fatalf("equal-priority jobs reordered: seq %d after %d", j.seq, prev)
		}
		prev = j.seq
	}
}

func TestKeyedServesSmallestKeyFirstTiesInOrder(t *testing.T) {
	q := new(Keyed)
	keys := []int64{30, 10, 20, 10, 30}
	for i, k := range keys {
		q.Push(Job{Class: i, Key: k, seq: uint64(i)})
	}
	got := drain(q)
	// Smallest key first; the two key-10 jobs in submission order, then
	// key 20, then the two key-30 jobs in submission order.
	want := []int{1, 3, 2, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keyed order = %v, want %v", got, want)
		}
	}
}

func TestKeyedEqualKeysPreserveSubmissionOrder(t *testing.T) {
	q := new(Keyed)
	for i := 0; i < 30; i++ {
		q.Push(Job{Class: i % 3, Key: 7, seq: uint64(i)})
	}
	var prev uint64
	for i := 0; i < 30; i++ {
		j, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		if i > 0 && j.seq < prev {
			t.Fatalf("equal-key jobs reordered: seq %d after %d", j.seq, prev)
		}
		prev = j.seq
	}
}

func TestKeyedPopReleasesClosure(t *testing.T) {
	q := new(Keyed)
	q.Push(Job{Key: 1, done: func() {}})
	q.Push(Job{Key: 2, done: func() {}})
	q.Pop()
	// The vacated tail slot (past the shrunken length) must be zeroed.
	if q.heap[:2][1].done != nil {
		t.Fatal("vacated heap slot still pins the done closure")
	}
}

// keyedVsSort replays an op stream on a Keyed queue and on a reference
// that stable-sorts its backlog on (Key, seq) before every pop: each
// pair of bytes pushes a job (even op byte, key from the second byte's
// low bits, so keys tie often, and large keys including MaxInt64 appear)
// or pops one (odd op byte). Pops, Len and the final drain must agree.
func keyedVsSort(t *testing.T, data []byte) {
	q := new(Keyed)
	var ref []Job
	var seq uint64
	pop := func() {
		j, ok := q.Pop()
		if len(ref) == 0 {
			if ok {
				t.Fatalf("empty reference, Keyed popped seq %d", j.seq)
			}
			return
		}
		sort.SliceStable(ref, func(a, b int) bool {
			if ref[a].Key != ref[b].Key {
				return ref[a].Key < ref[b].Key
			}
			return ref[a].seq < ref[b].seq
		})
		want := ref[0]
		ref = ref[1:]
		if !ok || j.seq != want.seq || j.Key != want.Key || j.Class != want.Class {
			t.Fatalf("Keyed popped (key %d, seq %d, ok %v), reference (key %d, seq %d)", j.Key, j.seq, ok, want.Key, want.seq)
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		if data[i]%2 == 1 {
			pop()
		} else {
			key := int64(data[i+1] % 8)
			switch data[i+1] >> 6 {
			case 2:
				key -= 4 // negative keys order too
			case 3:
				key = math.MaxInt64 - key // no-deadline convention
			}
			j := Job{Class: int(data[i] >> 1), Key: key, seq: seq}
			seq++
			q.Push(j)
			ref = append(ref, j)
		}
		if q.Len() != len(ref) {
			t.Fatalf("Len %d, reference %d", q.Len(), len(ref))
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if j, ok := q.Pop(); ok {
		t.Fatalf("drained reference, Keyed still popped seq %d", j.seq)
	}
}

// FuzzKeyedMatchesSort is the differential for the one heap every
// smallest-key-first discipline (priority, EDF, SRS) runs on. The
// seeds double as the regression corpus for plain `go test`.
func FuzzKeyedMatchesSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 1, 0, 3, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{2, 0, 4, 0, 6, 0, 1, 0, 8, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 0xc0, 0, 0x80, 0, 0x41, 0, 0x07, 1, 0, 0, 0xc1, 1, 0, 1, 0})
	f.Fuzz(keyedVsSort)
}

// TestKeyedMatchesSortRandom gives the differential broad coverage in
// ordinary `go test` runs.
func TestKeyedMatchesSortRandom(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := Stream(seed * 0x9e3779b9)
		data := make([]byte, 2*(50+int(rng.Uint64()%500)))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		keyedVsSort(t, data)
	}
}

// SubmitKeyed must thread the key through to the discipline, and a
// server under EDF must serve the backlog deadline-first.
func TestServerSubmitKeyedOrdersByKey(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "srv", 1, new(Keyed))
	var order []int64
	mk := func(key int64) func() {
		return func() { order = append(order, key) }
	}
	s.SubmitKeyed(0, 50, Nanosecond, mk(50)) // seizes the slot
	s.SubmitKeyed(0, 40, Nanosecond, mk(40))
	s.SubmitKeyed(0, 10, Nanosecond, mk(10))
	s.SubmitKeyed(0, 20, Nanosecond, mk(20))
	e.Run()
	want := []int64{50, 10, 20, 40}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v", order, want)
		}
	}
}

func TestWRRTakesClassesInTurn(t *testing.T) {
	// Classes are visited in first-activation order, one job per turn;
	// once class 1 drains, class 0 has the station to itself.
	q := NewWRR()
	var seq uint64
	for i := 0; i < 5; i++ {
		q.Push(Job{Class: 0, seq: seq})
		seq++
	}
	for i := 0; i < 2; i++ {
		q.Push(Job{Class: 1, seq: seq})
		seq++
	}
	got := drain(q)
	want := []int{0, 1, 0, 1, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WRR order = %v, want %v", got, want)
		}
	}
}

func TestWRRDropsDrainedClassesFromRotation(t *testing.T) {
	q := NewWRR()
	q.Push(Job{Class: 0, seq: 0})
	q.Push(Job{Class: 1, seq: 1})
	q.Push(Job{Class: 1, seq: 2})
	got := drain(q)
	want := []int{0, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WRR order = %v, want %v", got, want)
		}
	}
	// A class that re-activates after draining rejoins the rotation.
	q.Push(Job{Class: 0, seq: 3})
	if j, ok := q.Pop(); !ok || j.Class != 0 {
		t.Fatalf("re-activated class not served: %v %v", j, ok)
	}
}

// A FIFO server's busy-slot dequeue path must not allocate in steady
// state: jobs park in the warm ring and completions pop them without
// touching the heap.
func TestServerQueueSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "srv", 1, nil)
	nop := func() {}
	// Warm: fill the queue once so the ring and the engine free lists
	// are sized.
	for i := 0; i < 8; i++ {
		s.SubmitKeyed(0, 0, Nanosecond, nop)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 4; i++ {
			s.SubmitKeyed(0, 0, Nanosecond, nop)
		}
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("server submit/queue/complete allocates %.1f per round, want 0", avg)
	}
}

func TestServerDiscPriorityReordersBacklog(t *testing.T) {
	e := NewEngine()
	// Class 1 (priority 0) outranks class 0 (priority 1).
	s := NewServerDisc(e, "srv", 1, new(Keyed))
	var order []int
	submit := func(class int) {
		s.SubmitKeyed(class, int64(1-class), Nanosecond, func() { order = append(order, class) })
	}
	// First submission seizes the slot; the rest queue and are served by
	// priority: both class-1 jobs before the class-0 job.
	submit(0)
	submit(0)
	submit(1)
	submit(1)
	e.Run()
	want := []int{0, 1, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v", order, want)
		}
	}
}

func TestServerWaitTimeAccountsQueueing(t *testing.T) {
	e := NewEngine()
	s := NewServerDisc(e, "srv", 1, nil)
	s.SubmitKeyed(0, 0, 10*Nanosecond, nil)
	s.SubmitKeyed(0, 0, 10*Nanosecond, nil)
	e.Run()
	if s.WaitTime != 10*Nanosecond {
		t.Errorf("WaitTime = %v, want 10ns (second job queued behind the first)", s.WaitTime)
	}
	if s.Jobs != 2 || s.BusyTime != 20*Nanosecond {
		t.Errorf("Jobs=%d BusyTime=%v", s.Jobs, s.BusyTime)
	}
}
