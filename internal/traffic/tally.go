package traffic

import (
	"dmx/internal/obs"
	"dmx/internal/sim"
)

// Tally accumulates one AppLoad row per application as requests retire:
// the per-request accounting every serving driver shares. A fleet keeps
// one Tally per replica (plus one for the router's own rejections) and
// Spec.Report rolls them up.
type Tally struct {
	Apps        []AppLoad
	first, last []sim.Time
}

// NewTally returns an empty tally with one row per named application.
func NewTally(names []string) *Tally {
	t := &Tally{
		Apps:  make([]AppLoad, len(names)),
		first: make([]sim.Time, len(names)),
		last:  make([]sim.Time, len(names)),
	}
	for i, n := range names {
		t.Apps[i].App = n
	}
	return t
}

// Retire counts one request of app that retired at end with a latency
// budget of budget (zero = none). Rejected and abandoned requests never
// completed: they leave no latency sample and no completion. A
// completion later than Start+budget is a miss.
func (t *Tally) Retire(app int, r Retired, end sim.Time, budget sim.Duration) {
	al := &t.Apps[app]
	al.Requests++
	al.Retries += r.Retries
	al.Timeouts += r.Timeouts
	switch r.Outcome {
	case OutcomeRejected:
		al.Rejected++
		return
	case OutcomeAbandoned:
		al.Abandoned++
		return
	}
	lat := obs.Duration(end.Sub(r.Start))
	al.Latency.Add(lat)
	if r.Outcome == OutcomeDegraded {
		al.Degraded++
		al.DegradedLat.Add(lat)
	} else {
		al.CleanLat.Add(lat)
	}
	if budget != 0 && end > r.Start.Add(budget) {
		al.Missed++
	}
	if al.Completed == 0 || end < t.first[app] {
		t.first[app] = end
	}
	if end > t.last[app] {
		t.last[app] = end
	}
	al.Completed++
}

// achieved is app's steady-state completion rate between its first and
// last completion (zero below two completions).
func (t *Tally) achieved(app int) float64 {
	n := t.Apps[app].Completed
	if span := t.last[app].Sub(t.first[app]).Seconds(); n > 1 && span > 0 {
		return float64(n-1) / span
	}
	return 0
}

// Report rolls disjoint tallies (same apps, in the same order) up into
// one LoadReport. Each part's row gets its share of the offered rate,
// in proportion to the requests it counted (SplitRate), and its own
// achieved rate; MergeApps then sums the parts, and Finalize derives
// the quantiles. A one-part report is that part's rows.
func (s Spec) Report(makespan sim.Duration, parts ...*Tally) LoadReport {
	rep := LoadReport{Arrival: s.Arrival, Seed: s.Seed, Makespan: makespan}
	rep.PerApp = make([]AppLoad, len(parts[0].Apps))
	counts := make([]int, len(parts))
	rows := make([]AppLoad, len(parts))
	for i := range rep.PerApp {
		for p, t := range parts {
			counts[p] = t.Apps[i].Requests
		}
		var shares []float64
		if s.Arrival != ClosedLoop {
			shares = SplitRate(s.Rate, counts)
		}
		for p, t := range parts {
			rows[p] = t.Apps[i]
			if shares != nil {
				rows[p].Offered = shares[p]
			}
			rows[p].Achieved = t.achieved(i)
		}
		rep.PerApp[i] = MergeApps(rows...)
	}
	rep.Finalize()
	return rep
}
