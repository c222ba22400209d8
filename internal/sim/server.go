package sim

import (
	"fmt"
	"strconv"

	"dmx/internal/obs"
)

// Server models a service station with a fixed number of identical
// slots: a pool of CPU cores executing restructuring jobs, a DRX
// processing unit, an accelerator's execution engine. Jobs carry a
// precomputed service time; if all slots are busy the job waits under
// the server's Discipline (FIFO by default, in arrival order).
type Server struct {
	eng  *Engine
	name string
	busy int
	disc Discipline
	seq  uint64 // submission order, the disciplines' deterministic tie-break

	// Jobs counts completed jobs; BusyTime integrates slot-seconds of
	// service; WaitTime integrates queueing delay across jobs.
	Jobs     int64
	BusyTime Duration
	WaitTime Duration

	// slots holds each slot's state; free is the top of the stack of
	// idle slots (lowest on top initially, -1 when every slot is busy),
	// linked through slotState.below, so slot assignment is
	// deterministic.
	slots []slotState
	free  int

	// one backs slots for a one-slot server and fifo is the default
	// discipline: held inline, they make building the common station
	// (every accelerator, most DRX units) a single allocation plus its
	// completion closure.
	one  [1]slotState
	fifo FIFO
}

// slotState is one service slot: its trace track (one per slot, so
// concurrent jobs on a multi-slot server never overlap on one track),
// its in-service job and that job's start time, its preallocated
// completion closure (so the steady-state submit/serve/complete cycle
// never allocates), and the idle slot below it on the free stack.
type slotState struct {
	track string
	job   Job
	begin Time
	fire  func()
	below int
}

// NewServer creates a FIFO server with the given number of service
// slots.
func NewServer(eng *Engine, name string, slots int) *Server {
	return NewServerDisc(eng, name, slots, nil)
}

// NewServerDisc creates a server whose waiting jobs are ordered by the
// given discipline (nil is FIFO).
func NewServerDisc(eng *Engine, name string, slots int, d Discipline) *Server {
	if slots <= 0 {
		panic(fmt.Sprintf("sim: server %q needs at least one slot", name))
	}
	s := &Server{eng: eng, name: name, disc: d}
	if d == nil {
		s.disc = &s.fifo
	}
	s.slots = s.one[:]
	if slots > 1 {
		s.slots = make([]slotState, slots)
	}
	for i := range s.slots {
		sl := &s.slots[i]
		sl.track = name
		if slots > 1 {
			sl.track = name + "/" + strconv.Itoa(i)
		}
		sl.fire = func() { s.complete(i) }
		sl.below = i + 1
	}
	s.slots[slots-1].below = -1
	return s
}

// Name reports the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Slots reports the number of service slots.
func (s *Server) Slots() int { return len(s.slots) }

// Busy reports the number of slots currently serving a job.
func (s *Server) Busy() int { return s.busy }

// Submit enqueues a class-0 job that needs the given service time and
// calls done on completion. Service begins immediately if a slot is
// free.
func (s *Server) Submit(service Duration, done func()) {
	s.SubmitKeyed(0, 0, service, done)
}

// SubmitKeyed enqueues a job under a tenant class (what WRR takes turns
// by; FIFO ignores it) with a per-job scheduling key (what the Keyed
// disciplines order by; FIFO and WRR ignore it).
func (s *Server) SubmitKeyed(class int, key int64, service Duration, done func()) {
	s.enqueue(Job{Class: class, Key: key, Service: service, done: done})
}

// SubmitKeyedHold enqueues a job like SubmitKeyed, but when the job
// completes its slot is NOT freed: done receives a Hold representing the
// still-occupied slot, and the caller decides when the slot's tenancy
// ends — either Resume (a follow-on service segment on the same slot,
// skipping the queue) or Release. This models a resident context: a
// fused DRX program that runs its first half, stays loaded while the
// intermediate result is consumed elsewhere, and finishes its second
// half without re-arbitrating for the unit. The gap between the two
// segments occupies the slot but accrues no BusyTime (the unit is
// resident, not executing).
func (s *Server) SubmitKeyedHold(class int, key int64, service Duration, done func(*Hold)) {
	s.enqueue(Job{Class: class, Key: key, Service: service, holdDone: done})
}

// enqueue stamps a submitted job with its arrival time and submission
// order, then starts it on a free slot or parks it in the discipline.
func (s *Server) enqueue(j Job) {
	if j.Service < 0 {
		panic(fmt.Sprintf("sim: negative service time %v", j.Service))
	}
	j.enqueued, j.seq = s.eng.Now(), s.seq
	s.seq++
	if s.busy < len(s.slots) {
		s.start(j)
		return
	}
	s.disc.Push(j)
	s.sampleQueue()
}

// Hold is a service slot retained past job completion by
// SubmitKeyedHold. Exactly one of Resume or Release must eventually be
// called, or the slot leaks (and a single-slot server deadlocks).
type Hold struct {
	s    *Server
	slot int
	live bool
}

// Resume schedules a follow-on service segment on the held slot,
// bypassing the queue (the slot never became free). The segment
// completes like any job: it accrues BusyTime, emits a service span, and
// then frees the slot normally. A Hold can be resumed once.
func (h *Hold) Resume(service Duration, done func()) {
	if !h.live {
		panic("sim: Resume on a spent hold")
	}
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service time %v", service))
	}
	h.live = false
	s := h.s
	j := Job{Service: service, done: done, enqueued: s.eng.Now(), seq: s.seq}
	s.seq++
	sl := &s.slots[h.slot]
	sl.job, sl.begin = j, s.eng.Now()
	s.eng.Schedule(service, sl.fire)
}

// Release frees the held slot without further service, pulling the next
// queued job into service as a normal completion would.
func (h *Hold) Release() {
	if !h.live {
		panic("sim: Release on a spent hold")
	}
	h.live = false
	s := h.s
	s.busy--
	s.push(h.slot)
	if next, ok := s.disc.Pop(); ok {
		s.sampleQueue()
		s.start(next)
	}
}

// sampleQueue emits the queue-depth counter series (one sample per
// transition). The nil-recorder path is a single branch.
func (s *Server) sampleQueue() {
	s.eng.Obs.Counter(obs.Time(s.eng.Now()), s.name, "queue", float64(s.disc.Len()))
}

func (s *Server) start(j Job) {
	s.busy++
	s.WaitTime += s.eng.Now().Sub(j.enqueued)
	sl := &s.slots[s.free]
	s.free = sl.below
	sl.job, sl.begin = j, s.eng.Now()
	s.eng.Schedule(j.Service, sl.fire)
}

// push returns an idle slot to the top of the free stack.
func (s *Server) push(slot int) {
	s.slots[slot].below = s.free
	s.free = slot
}

// complete retires slot's in-service job: free the slot, pull the next
// queued job into service, then run the completion callback.
func (s *Server) complete(slot int) {
	sl := &s.slots[slot]
	j := sl.job
	sl.job = Job{} // release the done closure
	s.Jobs++
	s.BusyTime += j.Service
	// Occupancy span: one job in service on this slot's track.
	// The nil-recorder path is a single branch (no allocation).
	s.eng.Obs.Span(obs.Time(sl.begin), obs.Duration(j.Service),
		obs.TypeService, obs.PhaseNone, 0, sl.track, "", s.name, 0)
	if j.holdDone != nil {
		// The job asked to retain its slot: hand the caller the tenancy
		// instead of freeing it. No queue pop — the slot is still busy.
		j.holdDone(&Hold{s: s, slot: slot, live: true})
		return
	}
	s.busy--
	s.push(slot)
	// Release the slot before the callback so that work triggered by
	// the completion can enter service at the same instant.
	if next, ok := s.disc.Pop(); ok {
		s.sampleQueue()
		s.start(next)
	}
	if j.done != nil {
		j.done()
	}
}
