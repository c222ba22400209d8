// Package tune searches the serving configuration space — DRX
// placement, scheduling discipline, continuous-batching window and cap,
// admission limit, retry budget, and cross-hop kernel fusion — for the
// combination that maximizes throughput under the latency SLO.
//
// The search is greedy coordinate descent seeded by the capacity
// model: the starting placement is the one whose per-app capacity
// bounds sum highest. dmxsys.Plan.Capacities derives them by walking
// one request of each app through the request machine, so they are the
// occupancy a run records, and simulation time is spent refining a
// configuration the cost model already believes in rather than
// exploring placements one cheap walk per app rules out. Every candidate
// is then evaluated exactly — a full deterministic cluster simulation on
// the sweep worker pool — and the result is reproducible byte for byte
// at any worker count: candidate generation, deduplication, and
// selection all happen on the coordinating goroutine in deterministic
// order, and only the independent evaluations fan out.
package tune

import (
	"fmt"
	"sort"
	"strings"

	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/sim"
	"dmx/internal/sweep"
	"dmx/internal/traffic"
)

// Axes is one point in the search space: the tunable coordinates of a
// serving configuration. Everything else about the experiment (apps,
// traffic, fleet shape, fault plan) is held fixed by the caller's
// Materialize function.
type Axes struct {
	// Placement is the DRX placement.
	Placement dmxsys.Placement
	// Sched is the service discipline at contended stations.
	Sched dmxsys.SchedPolicy
	// BatchWindow enables continuous batching when nonzero.
	BatchWindow sim.Duration
	// BatchMax caps the batch size (meaningful only with a window).
	BatchMax int
	// Admit bounds each app's outstanding requests (0 = unlimited).
	Admit int
	// Retry caps attempts per stage (0 = the caller's default policy).
	Retry int
	// Fuse lists the fused adjacent hop pairs (empty = no fusion;
	// mutually exclusive with BatchWindow, shared-DRX placements only).
	Fuse []dmxsys.FusePair
}

// Key renders the axes canonically — the deduplication and tie-break
// identity of a candidate. Fuse pairs are sorted, so permutations of
// the same fusion set share a key.
func (a Axes) Key() string {
	fuse := make([]string, len(a.Fuse))
	pairs := append([]dmxsys.FusePair(nil), a.Fuse...)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].App != pairs[j].App {
			return pairs[i].App < pairs[j].App
		}
		return pairs[i].Hop < pairs[j].Hop
	})
	for i, p := range pairs {
		fuse[i] = fmt.Sprintf("%d:%d", p.App, p.Hop)
	}
	return fmt.Sprintf("place=%v sched=%v window=%v batchmax=%d admit=%d retry=%d fuse=[%s]",
		a.Placement, a.Sched, a.BatchWindow, a.BatchMax, a.Admit, a.Retry, strings.Join(fuse, ","))
}

// clone returns a deep copy safe to mutate.
func (a Axes) clone() Axes {
	a.Fuse = append([]dmxsys.FusePair(nil), a.Fuse...)
	return a
}

// fusionLegal reports whether a placement has the shared DRX unit hop
// fusion requires (the same rule Config.Validate enforces).
func fusionLegal(p dmxsys.Placement) bool {
	return p == dmxsys.Integrated || p == dmxsys.Standalone || p == dmxsys.PCIeIntegrated
}

// Input parameterizes a search.
type Input struct {
	// Materialize expands axes into the fleet configuration to
	// simulate. It is the caller's single point of truth: the tuner
	// never edits configs directly, so whatever document Materialize
	// reads from (a dmx.Spec) replays the winner exactly by
	// construction. Materialize errors mark the candidate infeasible;
	// they never abort the search.
	Materialize func(Axes) (cluster.FleetConfig, error)
	// Traffic drives every evaluation.
	Traffic traffic.Spec
	// Pipes is the shared pipeline list (read-only across concurrent
	// evaluations).
	Pipes []*dmxsys.Pipeline
	// Start is the initial point. Its Placement is overwritten by the
	// capacity-model seed unless Placements pins exactly one.
	Start Axes
	// Placements limits the search to these placements (empty = all).
	Placements []dmxsys.Placement
	// MaxRounds caps coordinate-descent rounds (0 = 4).
	MaxRounds int
}

// Score is the measured quality of one candidate.
type Score struct {
	// Goodput is the objective: SLO-satisfying completions per second
	// of makespan, summed over apps. Without a Traffic deadline every
	// completion counts.
	Goodput float64
	// P99 is the worst per-app 99th-percentile latency.
	P99 sim.Duration
	// Completed, Missed, Rejected, and Abandoned total the request
	// outcomes across apps.
	Completed, Missed, Rejected, Abandoned int
}

// better orders scores: goodput descending, then p99 ascending, then
// the canonical key — a strict total order, so selection is
// deterministic.
func better(a Score, aKey string, b Score, bKey string) bool {
	if a.Goodput != b.Goodput {
		return a.Goodput > b.Goodput
	}
	if a.P99 != b.P99 {
		return a.P99 < b.P99
	}
	return aKey < bKey
}

// Candidate is one evaluated point.
type Candidate struct {
	Axes  Axes
	Score Score
	// Round is the descent round that generated the candidate (0 = the
	// capacity-model seed).
	Round int
	// OK is false when the candidate was infeasible; Err carries the
	// materialization or simulation error.
	OK  bool
	Err string
}

// Result is a completed search.
type Result struct {
	// Winner is the best feasible candidate's axes and Score its
	// measured score.
	Winner Axes
	Score  Score
	// Candidates holds every evaluated point, feasible first, ranked by
	// better; infeasible candidates follow in key order.
	Candidates []Candidate
	// Evaluations counts simulations run; Rounds counts descent rounds
	// completed (excluding the seed).
	Evaluations, Rounds int
	// SeedPlacement is the placement the capacity model chose, and
	// SeedCapacity its summed per-app bound in req/s.
	SeedPlacement dmxsys.Placement
	SeedCapacity  float64
}

// ladders for the discrete axes.
var (
	windowLadder   = []sim.Duration{0, 50 * sim.Microsecond, 100 * sim.Microsecond, 200 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond}
	batchMaxLadder = []int{0, 4, 8, 16}
	admitLadder    = []int{0, 8, 16, 32, 64}
	retryLadder    = []int{0, 2, 4}
	allPlacements  = []dmxsys.Placement{dmxsys.AllCPU, dmxsys.MultiAxl, dmxsys.Integrated, dmxsys.Standalone, dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire}
	allScheds      = []dmxsys.SchedPolicy{dmxsys.SchedFIFO, dmxsys.SchedPriority, dmxsys.SchedWFQ, dmxsys.SchedEDF, dmxsys.SchedSRS}
)

// Run executes the search.
func Run(in Input) (Result, error) {
	if in.Materialize == nil {
		return Result{}, fmt.Errorf("tune: Materialize is required")
	}
	if len(in.Pipes) == 0 {
		return Result{}, fmt.Errorf("tune: no pipelines to tune")
	}
	placements := in.Placements
	if len(placements) == 0 {
		placements = allPlacements
	}
	maxRounds := in.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4
	}

	// Seed: the placement whose capacity bounds sum highest.
	// Ties break toward the earlier entry in the placement list, so the
	// seed is deterministic.
	var res Result
	res.SeedCapacity = -1
	for _, p := range placements {
		a := in.Start.clone()
		a.Placement = p
		if !fusionLegal(p) {
			a.Fuse = nil
		}
		fc, err := in.Materialize(a)
		if err != nil {
			continue
		}
		plan, err := dmxsys.NewPlan(fc.Base, in.Pipes)
		if err != nil {
			continue
		}
		caps, err := plan.Capacities()
		if err != nil {
			return Result{}, fmt.Errorf("tune: %v capacity: %w", p, err)
		}
		total := 0.0
		for _, c := range caps {
			total += c.PerSecond
		}
		if total > res.SeedCapacity {
			res.SeedCapacity, res.SeedPlacement = total, p
		}
	}
	if res.SeedCapacity < 0 {
		return Result{}, fmt.Errorf("tune: no placement produced a feasible plan")
	}

	// Fusion candidates per placement, enumerated once from an unfused,
	// unbatched plan. Failures just mean no fusion moves there.
	fusible := make(map[dmxsys.Placement][]dmxsys.FusePair)
	for _, p := range placements {
		if !fusionLegal(p) {
			continue
		}
		base := in.Start.clone()
		base.Placement, base.Fuse, base.BatchWindow, base.BatchMax = p, nil, 0, 0
		fc, err := in.Materialize(base)
		if err != nil {
			continue
		}
		plan, err := dmxsys.NewPlan(fc.Base, in.Pipes)
		if err != nil {
			continue
		}
		for _, c := range plan.FusionCandidates() {
			fusible[p] = append(fusible[p], dmxsys.FusePair{App: c.App, Hop: c.Hop})
		}
	}

	eval := func(a Axes, round int) Candidate {
		c := Candidate{Axes: a, Round: round}
		fc, err := in.Materialize(a)
		if err != nil {
			c.Err = err.Error()
			return c
		}
		f, err := cluster.New(fc, in.Pipes)
		if err != nil {
			c.Err = err.Error()
			return c
		}
		rep, err := f.Run(in.Traffic)
		if err != nil {
			c.Err = err.Error()
			return c
		}
		c.OK = true
		c.Score = scoreOf(rep)
		return c
	}

	seed := in.Start.clone()
	seed.Placement = res.SeedPlacement
	if !fusionLegal(seed.Placement) {
		seed.Fuse = nil
	}
	seen := map[string]bool{seed.Key(): true}
	best := eval(seed, 0)
	res.Evaluations++
	res.Candidates = append(res.Candidates, best)
	if !best.OK {
		// The seed itself must simulate; a base experiment that cannot
		// run is a caller error, not an unlucky neighbor.
		return Result{}, fmt.Errorf("tune: seed configuration failed: %s", best.Err)
	}

	for round := 1; round <= maxRounds; round++ {
		var moves []Axes
		for _, a := range neighbors(best.Axes, placements, fusible) {
			if k := a.Key(); !seen[k] {
				seen[k] = true
				moves = append(moves, a)
			}
		}
		if len(moves) == 0 {
			break
		}
		evald, _ := sweep.Map(moves, func(_ int, a Axes) (Candidate, error) {
			return eval(a, round), nil
		})
		res.Evaluations += len(evald)
		res.Candidates = append(res.Candidates, evald...)
		improved := false
		for _, c := range evald {
			if c.OK && better(c.Score, c.Axes.Key(), best.Score, best.Axes.Key()) {
				best, improved = c, true
			}
		}
		res.Rounds = round
		if !improved {
			break
		}
	}

	res.Winner, res.Score = best.Axes, best.Score
	rank(res.Candidates)
	return res, nil
}

// scoreOf condenses a load report into the objective.
func scoreOf(rep traffic.LoadReport) Score {
	var s Score
	for _, a := range rep.PerApp {
		s.Completed += a.Completed
		s.Missed += a.Missed
		s.Rejected += a.Rejected
		s.Abandoned += a.Abandoned
		if a.P99 > s.P99 {
			s.P99 = a.P99
		}
	}
	if sec := rep.Makespan.Seconds(); sec > 0 {
		s.Goodput = float64(s.Completed-s.Missed) / sec
	}
	return s
}

// neighbors generates every one-axis move from cur, in deterministic
// order. Cross-regime moves repair conflicting axes instead of being
// skipped: turning batching on drops fusion, leaving a fused placement
// drops the fusion set, and closing the window zeroes the cap.
func neighbors(cur Axes, placements []dmxsys.Placement, fusible map[dmxsys.Placement][]dmxsys.FusePair) []Axes {
	var out []Axes
	for _, p := range placements {
		if p == cur.Placement {
			continue
		}
		a := cur.clone()
		a.Placement = p
		if !fusionLegal(p) {
			a.Fuse = nil
		}
		out = append(out, a)
	}
	for _, sched := range allScheds {
		if sched == cur.Sched {
			continue
		}
		a := cur.clone()
		a.Sched = sched
		out = append(out, a)
	}
	for _, w := range windowLadder {
		if w == cur.BatchWindow {
			continue
		}
		a := cur.clone()
		a.BatchWindow = w
		if w > 0 {
			a.Fuse = nil
		} else {
			a.BatchMax = 0
		}
		out = append(out, a)
	}
	if cur.BatchWindow > 0 {
		for _, m := range batchMaxLadder {
			if m == cur.BatchMax {
				continue
			}
			a := cur.clone()
			a.BatchMax = m
			out = append(out, a)
		}
	}
	for _, lim := range admitLadder {
		if lim == cur.Admit {
			continue
		}
		a := cur.clone()
		a.Admit = lim
		out = append(out, a)
	}
	for _, r := range retryLadder {
		if r == cur.Retry {
			continue
		}
		a := cur.clone()
		a.Retry = r
		out = append(out, a)
	}
	if cur.BatchWindow == 0 {
		for _, pair := range fusible[cur.Placement] {
			a := cur.clone()
			if i := fuseIndex(a.Fuse, pair); i >= 0 {
				a.Fuse = append(a.Fuse[:i], a.Fuse[i+1:]...)
			} else {
				a.Fuse = append(a.Fuse, pair)
			}
			out = append(out, a)
		}
	}
	return out
}

func fuseIndex(fuse []dmxsys.FusePair, p dmxsys.FusePair) int {
	for i, f := range fuse {
		if f == p {
			return i
		}
	}
	return -1
}

// rank orders candidates feasible-first by better, then infeasible by
// key — a stable presentation independent of evaluation order.
func rank(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.OK != b.OK {
			return a.OK
		}
		if !a.OK {
			return a.Axes.Key() < b.Axes.Key()
		}
		return better(a.Score, a.Axes.Key(), b.Score, b.Axes.Key())
	})
}
