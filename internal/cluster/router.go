package cluster

import (
	"fmt"

	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// Policy selects how the router assigns an arrival to a replica.
type Policy uint8

// Routing policies.
const (
	// PolicyScore is placement-aware headroom routing: each arrival goes
	// to the host maximizing cap(host, app) / (outstanding + 1), where
	// cap is the app's capacity bound on that host's plan
	// (dmxsys.Plan.Capacities). On a homogeneous fleet it degrades to
	// least-outstanding; on a heterogeneous one it weights hosts by how
	// well their DRX placement serves the pipeline.
	PolicyScore Policy = iota
	// PolicyRR round-robins each application's arrivals across hosts by
	// arrival index, skipping ineligible hosts.
	PolicyRR
	// PolicyLeast picks the eligible host with the fewest outstanding
	// requests (ties to the lowest index).
	PolicyLeast
)

var policyNames = [...]string{
	PolicyScore: "score",
	PolicyRR:    "rr",
	PolicyLeast: "least",
}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps a CLI token to a routing policy.
func ParsePolicy(s string) (Policy, error) {
	for i, name := range policyNames {
		if s == name {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown router policy %q (want score, rr, or least)", s)
}

// RouterConfig parameterizes the fleet's front door. The zero value
// routes by score with no admission cap and no draining — which, on a
// one-host fleet, always picks host 0 and preserves single-host
// behavior exactly.
type RouterConfig struct {
	Policy Policy
	// HostAdmit, when positive, caps each host's outstanding requests:
	// the router never assigns an arrival to a host already at the cap,
	// and rejects the request outright when every host is at it
	// (counted as Rejected in the report).
	HostAdmit int
	// DrainIncidents, when positive, drains a host — no new
	// assignments — while it has at least this many fault incidents
	// inside the trailing DrainWindow. A zero DrainWindow makes the
	// window unbounded (incidents never age out).
	DrainIncidents int
	DrainWindow    sim.Duration
}

// router is the fleet's load balancer. It is pure bookkeeping driven by
// the simulation clock — no wall time, no randomness — so routing
// decisions are part of the deterministic event timeline.
type router struct {
	cfg RouterConfig
	// caps[h][app] is app's capacity bound on host h (req/s); all zero
	// unless the policy is PolicyScore over more than one host.
	caps [][]float64
	// outstanding[h] counts requests assigned to h and not yet retired.
	outstanding []int
	// seq[app] is the PolicyRR arrival cursor.
	seq []int
	// lastIncidents[h] is the cumulative fault count already folded into
	// the trailing window; incidents[h] holds the timestamps inside it.
	lastIncidents []int
	incidents     [][]sim.Time
}

func newRouter(cfg RouterConfig, caps [][]float64, apps int) *router {
	hosts := len(caps)
	return &router{
		cfg:           cfg,
		caps:          caps,
		outstanding:   make([]int, hosts),
		seq:           make([]int, apps),
		lastIncidents: make([]int, hosts),
		incidents:     make([][]sim.Time, hosts),
	}
}

// observe folds host h's cumulative fault count into the trailing
// incident window and ages out entries older than DrainWindow.
func (r *router) observe(h, total int, now sim.Time) {
	for i := r.lastIncidents[h]; i < total; i++ {
		r.incidents[h] = append(r.incidents[h], now)
	}
	r.lastIncidents[h] = total
	if r.cfg.DrainWindow > 0 {
		cut := now.Add(-r.cfg.DrainWindow)
		keep := r.incidents[h][:0]
		for _, t := range r.incidents[h] {
			if t > cut {
				keep = append(keep, t)
			}
		}
		r.incidents[h] = keep
	}
}

// drained reports whether host h is currently refusing new work.
func (r *router) drained(h int) bool {
	return r.cfg.DrainIncidents > 0 && len(r.incidents[h]) >= r.cfg.DrainIncidents
}

// eligible reports whether host h may receive an arrival right now.
func (r *router) eligible(h int) bool {
	if r.drained(h) {
		return false
	}
	if r.cfg.HostAdmit > 0 && r.outstanding[h] >= r.cfg.HostAdmit {
		return false
	}
	return true
}

// pick assigns one arrival of app to a host, or returns -1 when every
// host is drained or at its admission cap. Ties break to the lowest
// host index, keeping the choice deterministic.
func (r *router) pick(app int) int {
	n := len(r.outstanding)
	switch r.cfg.Policy {
	case PolicyRR:
		start := traffic.RoundRobin(r.seq[app], n)
		r.seq[app]++
		for i := 0; i < n; i++ {
			h := (start + i) % n
			if r.eligible(h) {
				return h
			}
		}
		return -1
	case PolicyLeast:
		best := -1
		for h := 0; h < n; h++ {
			if !r.eligible(h) {
				continue
			}
			if best < 0 || r.outstanding[h] < r.outstanding[best] {
				best = h
			}
		}
		return best
	default: // PolicyScore
		best, bestScore := -1, 0.0
		for h := 0; h < n; h++ {
			if !r.eligible(h) {
				continue
			}
			if score := r.caps[h][app] / float64(r.outstanding[h]+1); best < 0 || score > bestScore {
				best, bestScore = h, score
			}
		}
		return best
	}
}
