package dmxsys

import (
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
	names := make([]string, len(s.apps))
	for i, a := range s.apps {
		names[i] = a.pipe.Name
	}
	t := traffic.NewTally(names)
	if err := s.drive(spec, t); err != nil {
		return traffic.LoadReport{}, err
	}
	s.TallyBatches(t)
	return spec.Report(sim.Duration(s.Eng.Now()), t), nil
}

// Admit injects one request of app into the serving machine at the
// current engine time and calls done when it retires. Admission
// control, batching, scheduling, and fault recovery behave exactly as
// under RunLoad; this is the cluster front door, and with an empty host
// prefix a fleet of one driving Admit per arrival reproduces RunLoad's
// engine timeline event for event. The request's pooled record carries
// done itself, so a caller that passes one bound func per arrival
// record allocates nothing here in the steady state.
func (s *System) Admit(app int, deadline sim.Duration, done func(traffic.Retired)) {
	s.admit(s.apps[app], deadline, done)
}

// TallyBatches writes into each app's row of t how many coalesced
// dispatch groups the app's requests rode and how many requests they
// carried.
func (s *System) TallyBatches(t *traffic.Tally) {
	for i, a := range s.apps {
		t.Apps[i].Batches, t.Apps[i].BatchedRequests = a.nbatches, a.batchedReqs
	}
}

// Err surfaces the first flow error after the engine drains (nil on a
// clean run). External drivers sharing the engine check it where
// RunLoad would have.
func (s *System) Err() error { return s.err }
