package sim

import (
	"fmt"

	"dmx/internal/obs"
)

// Server models a service station with a fixed number of identical
// slots: a pool of CPU cores executing restructuring jobs, a DRX
// processing unit, an accelerator's execution engine. Jobs carry a
// precomputed service time; if all slots are busy the job waits under
// the server's Discipline (FIFO by default, in arrival order).
type Server struct {
	eng   *Engine
	name  string
	slots int
	busy  int
	disc  Discipline
	seq   uint64 // submission order, the disciplines' deterministic tie-break

	// Jobs counts completed jobs; BusyTime integrates slot-seconds of
	// service; WaitTime integrates queueing delay across jobs.
	Jobs     int64
	BusyTime Duration
	WaitTime Duration

	// MaxQueue records the deepest backlog ever reached.
	MaxQueue int

	// Per-slot state. tracks holds one trace-track name per slot so
	// that concurrent jobs on a multi-slot server never overlap on a
	// single track; job/begin are the slot's in-service job and its
	// start time; fire holds one preallocated completion closure per
	// slot so the steady-state submit/serve/complete cycle never
	// allocates. free is a preallocated stack of idle slot indices
	// (lowest on top), so slot assignment is deterministic.
	tracks []string
	job    []Job
	begin  []Time
	fire   []func()
	free   []int
}

// NewServer creates a FIFO server with the given number of service
// slots.
func NewServer(eng *Engine, name string, slots int) *Server {
	return NewServerDisc(eng, name, slots, NewFIFO())
}

// NewServerDisc creates a server whose waiting jobs are ordered by the
// given discipline.
func NewServerDisc(eng *Engine, name string, slots int, d Discipline) *Server {
	if slots <= 0 {
		panic(fmt.Sprintf("sim: server %q needs at least one slot", name))
	}
	if d == nil {
		d = NewFIFO()
	}
	s := &Server{eng: eng, name: name, slots: slots, disc: d}
	s.tracks = make([]string, slots)
	s.job = make([]Job, slots)
	s.begin = make([]Time, slots)
	s.fire = make([]func(), slots)
	s.free = make([]int, slots)
	for i := 0; i < slots; i++ {
		if slots == 1 {
			s.tracks[i] = name
		} else {
			s.tracks[i] = fmt.Sprintf("%s/%d", name, i)
		}
		i := i
		s.fire[i] = func() { s.complete(i) }
		s.free[i] = slots - 1 - i
	}
	return s
}

// Name reports the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Slots reports the number of service slots.
func (s *Server) Slots() int { return s.slots }

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
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service time %v", service))
	}
	j := Job{Class: class, Key: key, Service: service, done: done, enqueued: s.eng.Now(), seq: s.seq}
	s.seq++
	if s.busy < s.slots {
		s.start(j)
		return
	}
	s.disc.Push(j)
	if n := s.disc.Len(); n > s.MaxQueue {
		s.MaxQueue = n
	}
	s.sampleQueue()
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
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service time %v", service))
	}
	j := Job{Class: class, Key: key, Service: service, holdDone: done, enqueued: s.eng.Now(), seq: s.seq}
	s.seq++
	if s.busy < s.slots {
		s.start(j)
		return
	}
	s.disc.Push(j)
	if n := s.disc.Len(); n > s.MaxQueue {
		s.MaxQueue = n
	}
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
	s.job[h.slot] = j
	s.begin[h.slot] = s.eng.Now()
	s.eng.Schedule(service, s.fire[h.slot])
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
	s.free = append(s.free, h.slot)
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
	slot := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.job[slot] = j
	s.begin[slot] = s.eng.Now()
	s.eng.Schedule(j.Service, s.fire[slot])
}

// complete retires slot's in-service job: free the slot, pull the next
// queued job into service, then run the completion callback.
func (s *Server) complete(slot int) {
	j := s.job[slot]
	s.job[slot] = Job{} // release the done closure
	s.Jobs++
	s.BusyTime += j.Service
	// Occupancy span: one job in service on this slot's track.
	// The nil-recorder path is a single branch (no allocation).
	s.eng.Obs.Span(obs.Time(s.begin[slot]), obs.Duration(j.Service),
		obs.TypeService, obs.PhaseNone, 0, s.tracks[slot], "", s.name, 0)
	if j.holdDone != nil {
		// The job asked to retain its slot: hand the caller the tenancy
		// instead of freeing it. No queue pop — the slot is still busy.
		j.holdDone(&Hold{s: s, slot: slot, live: true})
		return
	}
	s.busy--
	s.free = append(s.free, slot)
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
