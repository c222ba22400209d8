package dmxsys

import (
	"dmx/internal/obs"
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// Load-generated execution: RunLoad drives the system with an explicit
// arrival process (internal/traffic). A closed-loop train releases every
// request at once and lets the pipeline pace completions — Sec. VII-A's
// continuous arrival, whose Achieved rate is the measured steady-state
// throughput. Open-loop and Poisson arrivals admit requests on their
// own clock regardless of completions, so offered load above the
// pipeline's capacity builds queueing delay — the latency-vs-offered-load
// curves of the serving experiments.

// RunLoad issues spec.Requests requests per application under the
// spec's arrival process and simulates to completion. The system must
// be freshly built (Run and RunLoad consume the engine).
func (s *System) RunLoad(spec traffic.Spec) (traffic.LoadReport, error) {
	if err := spec.Validate(); err != nil {
		return traffic.LoadReport{}, err
	}
	rep := traffic.LoadReport{Arrival: spec.Arrival, Seed: spec.Seed}
	rep.PerApp = make([]traffic.AppLoad, len(s.apps))
	firsts := make([]sim.Time, len(s.apps))
	lasts := make([]sim.Time, len(s.apps))
	for i, a := range s.apps {
		al := &rep.PerApp[i]
		al.App = a.pipe.Name
		al.Requests = spec.Requests
		if spec.Arrival != traffic.ClosedLoop {
			al.Offered = spec.Rate
		}
	}
	// Admission control is a serving-layer behavior: only RunLoad has a
	// rejection channel in its report, so the limit gates here and not
	// under Run.
	s.admitting = true
	err := s.drive(spec,
		func(app int, r *request) {
			now := s.Eng.Now()
			al := &rep.PerApp[app]
			al.Retries += r.retries
			al.Timeouts += r.timeouts
			if r.outcome == traffic.OutcomeRejected {
				// Rejected requests never executed: no latency sample,
				// no completion.
				al.Rejected++
				return
			}
			if r.outcome == traffic.OutcomeAbandoned {
				// Abandoned requests retire without completing: no
				// latency sample, no completion, no rate contribution.
				al.Abandoned++
				return
			}
			lat := obs.Duration(now.Sub(r.start))
			al.Latency.Add(lat)
			if r.outcome == traffic.OutcomeDegraded {
				al.Degraded++
				al.DegradedLat.Add(lat)
			} else {
				al.CleanLat.Add(lat)
			}
			if r.deadline != 0 && now > r.deadline {
				al.Missed++
			}
			if al.Completed == 0 || now < firsts[app] {
				firsts[app] = now
			}
			if now > lasts[app] {
				lasts[app] = now
			}
			al.Completed++
		})
	if err != nil {
		return traffic.LoadReport{}, err
	}
	rep.Makespan = sim.Duration(s.Eng.Now())
	for i := range rep.PerApp {
		al := &rep.PerApp[i]
		if span := lasts[i].Sub(firsts[i]).Seconds(); al.Completed > 1 && span > 0 {
			al.Achieved = float64(al.Completed-1) / span
		}
		al.Batches = s.apps[i].nbatches
		al.BatchedRequests = s.apps[i].batchedReqs
	}
	rep.Finalize()
	return rep, nil
}

// Retired summarizes one request's retirement for an external driver —
// exactly the fields RunLoad reads off a retiring *request. The caller
// owns the clock (the shared engine) and computes latency itself.
type Retired struct {
	Outcome  traffic.Outcome
	Retries  int
	Timeouts int
}

// Admit injects one request of app into the serving machine at the
// current engine time and calls done when it retires. Admission
// control, batching, scheduling, and fault recovery behave exactly as
// under RunLoad; this is the cluster front door, and with an empty host
// prefix a fleet of one driving Admit per arrival reproduces RunLoad's
// engine timeline event for event. The request carries done itself, so
// a caller that passes one bound func per arrival record allocates
// nothing here beyond the request.
func (s *System) Admit(app int, deadline sim.Duration, done func(Retired)) {
	s.admitting = true
	s.admit(s.apps[app], deadline, nil, done)
}

// BatchStats reports how many coalesced dispatch groups the app's
// requests rode and how many requests they carried.
func (s *System) BatchStats(app int) (batches, requests int) {
	a := s.apps[app]
	return a.nbatches, a.batchedReqs
}

// Apps reports how many applications the system hosts.
func (s *System) Apps() int { return len(s.apps) }

// Err surfaces the first flow error after the engine drains (nil on a
// clean run). External drivers sharing the engine check it where
// RunLoad would have.
func (s *System) Err() error { return s.err }
