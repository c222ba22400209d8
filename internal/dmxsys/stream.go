package dmxsys

import (
	"fmt"

	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// Streamed execution: Sec. VII-A's throughput experiments assume
// "continuous arrival of requests for each application". RunStream
// issues a train of back-to-back requests per application; requests
// pipeline naturally through the accelerator servers, DRX units, links,
// and host channels, and the measured steady-state rate validates the
// stage-analysis throughput of AppReport.Throughput.

// StreamReport summarizes one streamed run.
type StreamReport struct {
	Placement Placement
	PerApp    []AppStream
	Makespan  sim.Duration
}

// AppStream is one application's streamed measurement.
type AppStream struct {
	App      string
	Requests int
	// First and Last are the completion times of the first and final
	// requests; Throughput is the steady-state rate between them.
	First, Last sim.Time
	Throughput  float64 // requests/second
}

// RunStream issues `requests` back-to-back requests per application and
// simulates to completion. The system must be freshly built (Run,
// RunStream, and RunLoad consume the engine).
func (s *System) RunStream(requests int) (StreamReport, error) {
	if requests < 2 {
		return StreamReport{}, fmt.Errorf("dmxsys: RunStream needs at least 2 requests to measure a rate (got %d)", requests)
	}
	// A closed-loop burst: every request of app i is admitted at the
	// app's stagger instant and the pipeline drains them back to back.
	completions := make([][]sim.Time, len(s.apps))
	err := s.drive(traffic.Spec{Arrival: traffic.ClosedLoop, Requests: requests}, func(app int, r *request) {
		completions[app] = append(completions[app], s.Eng.Now())
	})
	if err != nil {
		return StreamReport{}, err
	}
	rep := StreamReport{
		Placement: s.cfg.Placement,
		Makespan:  sim.Duration(s.Eng.Now()),
	}
	for i, a := range s.apps {
		cs := completions[i]
		first, last := cs[0], cs[0]
		for _, c := range cs {
			if c < first {
				first = c
			}
			if c > last {
				last = c
			}
		}
		as := AppStream{App: a.pipe.Name, Requests: requests, First: first, Last: last}
		if span := last.Sub(first).Seconds(); span > 0 {
			as.Throughput = float64(requests-1) / span
		}
		rep.PerApp = append(rep.PerApp, as)
	}
	return rep, nil
}
