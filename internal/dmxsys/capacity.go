package dmxsys

import (
	"dmx/internal/faults"
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// Capacity is the steady-state throughput bound of one app on one
// replica of the plan: the largest exclusive occupancy any shared
// resource (service station, fabric link, or host channel) accumulates
// per request, and its inverse, the request rate at which that resource
// saturates. Plan.Capacities derives it by walking one request through
// the request machine, so it is the occupancy a fault-free run measures
// (AppReport.Bottleneck) by construction. The tuner seeds from it and
// the cluster router weighs hosts by it.
type Capacity struct {
	// PerRequest is the bottleneck resource's occupancy per request.
	PerRequest sim.Duration
	// Resource names the bottleneck (plain, unprefixed name).
	Resource string
	// PerSecond is the bound: 1 / PerRequest (0 when PerRequest is 0).
	PerSecond float64
}

// Capacities derives every app's capacity bound, in app order, from the
// request machine itself. It instantiates a private, unprefixed replica
// of the plan on a fresh engine, with tracing, faults, retry and
// batching off, then walks one request of each app in turn alone
// through it to drain and reads the occupancy that request charged
// (appInstance.bottleneck). Nothing is shared with the caller's
// replicas or recorders, so it is safe to call concurrently and never
// perturbs a traced run. A flow error is returned.
func (p *Plan) Capacities() ([]Capacity, error) {
	q := *p
	q.cfg.Obs = nil
	q.cfg.Faults, q.cfg.Retry = nil, faults.RetryPolicy{}
	q.cfg.BatchWindow = 0
	s, err := q.Instantiate(sim.NewEngine(), HostOpts{})
	if err != nil {
		return nil, err
	}
	caps := make([]Capacity, len(s.apps))
	for i, a := range s.apps {
		// Each walk starts with the driver idle, as if it ran alone:
		// the previous app's completions must not tip it into polling.
		s.irqTimes = s.irqTimes[:0]
		retired := false
		s.admit(a, 0, func(traffic.Retired) { retired = true })
		s.Eng.Run()
		if s.err != nil {
			return nil, s.err
		}
		if !retired {
			return nil, s.stranded(1)
		}
		c := &caps[i]
		c.PerRequest, c.Resource = a.bottleneck()
		if c.PerRequest > 0 {
			c.PerSecond = 1 / c.PerRequest.Seconds()
		}
	}
	return caps, nil
}
