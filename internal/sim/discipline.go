package sim

// Service disciplines. A Server parks jobs that arrive while every slot
// is busy in a Discipline, which decides the order they enter service.
// The default FIFO preserves the classic arrival-order behavior; Keyed
// serves the smallest per-job key first (static priority, EDF, SRS) and
// WRR takes classes in turn, so a multi-tenant system can isolate
// applications sharing one station (a DRX unit, an accelerator) without
// touching the flow logic that submits jobs.
//
// Disciplines are single-goroutine, like the engine that drives them,
// and strictly deterministic: ties always break by submission sequence.

// Job is one unit of service waiting at a Server. Class tags the
// submitting tenant (dmxsys uses the application instance id); the
// unexported fields belong to the Server.
type Job struct {
	// Class is the tenant id the discipline schedules by.
	Class int
	// Key is the per-job scheduling key the Keyed discipline orders by
	// (smaller first): the class's priority, an absolute deadline under
	// EDF, a remaining service estimate under SRS. FIFO and WRR ignore
	// it; Submit leaves it zero.
	Key int64
	// Service is the job's precomputed service time.
	Service  Duration
	done     func()
	holdDone func(*Hold) // non-nil for SubmitKeyedHold jobs: slot stays occupied
	enqueued Time
	seq      uint64
}

// Discipline orders the jobs waiting at a Server. Push parks an
// arriving job; Pop yields the next job to enter service; Len reports
// the backlog. Implementations must be deterministic: for equal
// scheduling keys, jobs leave in Push order.
type Discipline interface {
	Push(j Job)
	Pop() (Job, bool)
	Len() int
}

// FIFO serves jobs strictly in arrival order. The backing store is a
// power-of-two ring buffer: dequeue releases the head slot immediately
// (no stranded capacity, no done-closure pinned until GC) and the
// steady-state Push/Pop cycle allocates nothing once the ring is warm.
type FIFO struct {
	ring []Job
	head int
	n    int
}

// NewFIFO returns an empty FIFO discipline.
func NewFIFO() *FIFO { return &FIFO{} }

// Len implements Discipline.
func (q *FIFO) Len() int { return q.n }

// Push implements Discipline.
func (q *FIFO) Push(j Job) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = j
	q.n++
}

// Pop implements Discipline. The vacated slot is zeroed so the job's
// done closure is released as soon as it leaves the queue.
func (q *FIFO) Pop() (Job, bool) {
	if q.n == 0 {
		return Job{}, false
	}
	j := q.ring[q.head]
	q.ring[q.head] = Job{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return j, true
}

// grow doubles the ring (capacity stays a power of two so the index
// mask works), unrolling the wrapped contents into the new store.
func (q *FIFO) grow() {
	size := 2 * len(q.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]Job, size)
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring = ring
	q.head = 0
}

// Keyed serves the waiting job with the smallest Job.Key (ties in
// submission order). The key travels with the job, so one discipline
// covers every smallest-key-first policy: a class's static priority, the
// request's absolute deadline (earliest-deadline-first), or the service
// demand still ahead of the request (shortest-remaining-service). Jobs
// without a meaningful key should carry math.MaxInt64 (EDF's "no
// deadline" convention) so keyed work always overtakes them. The zero
// Keyed is an empty queue.
type Keyed struct {
	heap []Job // binary min-heap on (Key, seq)
}

// Len implements Discipline.
func (q *Keyed) Len() int { return len(q.heap) }

func (q *Keyed) less(i, j int) bool {
	if q.heap[i].Key != q.heap[j].Key {
		return q.heap[i].Key < q.heap[j].Key
	}
	return q.heap[i].seq < q.heap[j].seq
}

// Push implements Discipline.
func (q *Keyed) Push(j Job) {
	q.heap = append(q.heap, j)
	// Sift up.
	for i := len(q.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// Pop implements Discipline.
func (q *Keyed) Pop() (Job, bool) {
	if len(q.heap) == 0 {
		return Job{}, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = Job{} // release the done closure
	q.heap = q.heap[:last]
	// Sift down.
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(q.heap) && q.less(left, smallest) {
			smallest = left
		}
		if right < len(q.heap) && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
	return top, true
}

// WRR is round-robin across classes: each class keeps its own FIFO
// sub-queue, active classes are visited in first-activation order, and
// a visit serves one job before yielding the turn.
type WRR struct {
	sub   map[int]*FIFO
	order []int // currently active (non-empty) classes, activation order
	cur   int   // index into order of the class holding the turn
	n     int
}

// NewWRR returns a round-robin discipline.
func NewWRR() *WRR { return &WRR{sub: make(map[int]*FIFO)} }

// Len implements Discipline.
func (q *WRR) Len() int { return q.n }

// Push implements Discipline.
func (q *WRR) Push(j Job) {
	s, ok := q.sub[j.Class]
	if !ok {
		s = NewFIFO()
		q.sub[j.Class] = s
	}
	if s.Len() == 0 {
		q.order = append(q.order, j.Class)
	}
	s.Push(j)
	q.n++
}

// Pop implements Discipline.
func (q *WRR) Pop() (Job, bool) {
	if q.n == 0 {
		return Job{}, false
	}
	if q.cur >= len(q.order) {
		q.cur = 0
	}
	class := q.order[q.cur]
	j, _ := q.sub[class].Pop()
	q.n--
	if q.sub[class].Len() == 0 {
		// Class drained: drop it from the rotation; the turn passes to
		// the class that slides into this position.
		q.order = append(q.order[:q.cur], q.order[q.cur+1:]...)
	} else {
		q.cur++
	}
	if q.cur >= len(q.order) {
		q.cur = 0
	}
	return j, true
}
