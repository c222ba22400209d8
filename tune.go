package dmx

import (
	"fmt"
	"sort"
	"strings"

	"dmx/internal/dmxsys"
	"dmx/internal/sweep"
)

// TuneSpec parameterizes an autotuning run: a base experiment plus the
// bounds of the search.
type TuneSpec struct {
	// Base is the experiment to tune. Its workload, traffic, fault
	// plan, and cluster shape are held fixed; its placement,
	// discipline, batch_window, batch_max, admit, retry, and fuse_hops
	// fields are the search axes (their Base values seed the start
	// point).
	Base Spec
	// Placements limits the search to these placement tokens (empty =
	// all six).
	Placements []string
	// MaxRounds caps the coordinate-descent rounds (0 = 4).
	MaxRounds int
}

// TuneCandidate is one evaluated configuration, expressed as the full
// replayable Spec it was simulated from.
type TuneCandidate struct {
	// Spec is the complete experiment document of this candidate.
	Spec Spec
	// Goodput is the objective: SLO-satisfying completions per second
	// of makespan (all completions when Base.SLO is empty).
	Goodput float64
	// P99 is the worst per-app 99th-percentile latency.
	P99 Duration
	// Outcome totals across apps.
	Completed, Missed, Rejected, Abandoned int
	// Round is the descent round that proposed the candidate (0 = the
	// capacity-model seed).
	Round int
	// OK is false for infeasible candidates; Err says why.
	OK  bool
	Err string
}

// TuneResult ranks everything the search evaluated.
type TuneResult struct {
	// Winner is the best configuration found, as a self-contained Spec:
	// SimulateCluster on Winner.Resolve() (or Winner.Simulate())
	// reproduces the winning score exactly.
	Winner Spec
	// Goodput and P99 are the winner's measured score.
	Goodput float64
	P99     Duration
	// Candidates holds every evaluated point, feasible first, best
	// first.
	Candidates []TuneCandidate
	// Evaluations counts full cluster simulations; Rounds counts
	// descent rounds.
	Evaluations, Rounds int
	// SeedPlacement is the placement token the analytic capacity model
	// seeded the search with, and SeedCapacity its summed per-app
	// capacity bound in req/s.
	SeedPlacement string
	SeedCapacity  float64
}

// String renders the result compactly: the winner line, the seed, and
// the top candidates. Deterministic at any sweep worker count.
func (r TuneResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tuned %d candidates in %d round(s), seed %s (capacity bound %.1f req/s)\n",
		r.Evaluations, r.Rounds, r.SeedPlacement, r.SeedCapacity)
	fmt.Fprintf(&b, "winner: %s  goodput %.1f req/s  p99 %v\n", specAxesLine(r.Winner), r.Goodput, r.P99)
	n := len(r.Candidates)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		c := r.Candidates[i]
		if !c.OK {
			fmt.Fprintf(&b, "  #%d %s  infeasible: %s\n", i+1, specAxesLine(c.Spec), c.Err)
			continue
		}
		fmt.Fprintf(&b, "  #%d %s  goodput %.1f req/s  p99 %v\n", i+1, specAxesLine(c.Spec), c.Goodput, c.P99)
	}
	return b.String()
}

// specAxesLine renders only the tunable axes of a spec.
func specAxesLine(s Spec) string {
	placement := s.Placement
	if placement == "" {
		placement = "bump"
	}
	discipline := s.Discipline
	if discipline == "" {
		discipline = "fifo"
	}
	line := fmt.Sprintf("%s/%s", placement, discipline)
	if s.BatchWindow != "" {
		line += fmt.Sprintf(" batch=%s", s.BatchWindow)
		if s.BatchMax > 0 {
			line += fmt.Sprintf("/%d", s.BatchMax)
		}
	}
	if s.Admit > 0 {
		line += fmt.Sprintf(" admit=%d", s.Admit)
	}
	if s.Retry > 0 {
		line += fmt.Sprintf(" retry=%d", s.Retry)
	}
	if len(s.FuseHops) > 0 {
		pairs := make([]string, len(s.FuseHops))
		for i, f := range s.FuseHops {
			pairs[i] = fmt.Sprintf("%d:%d", f.App, f.Hop)
		}
		line += " fuse=" + strings.Join(pairs, ",")
	}
	return line
}

// tuneAxes is one point in the search space: the tunable coordinates
// of a serving configuration. Everything else about the experiment
// (apps, traffic, fleet shape, fault plan) is held fixed by the base
// Spec that spec writes them into.
type tuneAxes struct {
	Placement   Placement
	Sched       SchedPolicy
	BatchWindow Duration
	// BatchMax caps the batch size (meaningful only with a window).
	BatchMax int
	Admit    int
	Retry    int
	// Fuse lists the fused adjacent hop pairs (mutually exclusive with
	// BatchWindow, shared-DRX placements only).
	Fuse []FusePair
}

// key renders the axes canonically: the deduplication identity and the
// last tie-break of a candidate. Fuse pairs are sorted, so permutations
// of the same fusion set share a key.
func (a tuneAxes) key() string {
	fuse := make([]string, len(a.Fuse))
	pairs := append([]FusePair(nil), a.Fuse...)
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
func (a tuneAxes) clone() tuneAxes {
	a.Fuse = append([]FusePair(nil), a.Fuse...)
	return a
}

// at moves the axes to placement p, dropping the fusion set where p
// has no shared DRX to fuse on.
func (a tuneAxes) at(p Placement) tuneAxes {
	a = a.clone()
	a.Placement = p
	if !fusionLegal(p) {
		a.Fuse = nil
	}
	return a
}

// spec writes the axes back into a copy of the base spec. It is the
// single translation between the tuner's coordinates and the experiment
// document: every candidate is simulated from, and reported as, the
// Spec it returns, so the winner replays the exact configuration the
// tuner scored, by construction.
func (a tuneAxes) spec(base Spec) Spec {
	s := base
	s.Placement = PlacementToken(a.Placement)
	s.Discipline = a.Sched.String()
	s.BatchWindow = ""
	if a.BatchWindow > 0 {
		s.BatchWindow = FormatDuration(a.BatchWindow)
	}
	s.BatchMax = a.BatchMax
	s.Admit = a.Admit
	s.Retry = a.Retry
	s.FuseHops = nil
	if len(a.Fuse) > 0 {
		s.FuseHops = append([]FusePair(nil), a.Fuse...)
	}
	return s
}

// tunePoint is one evaluated candidate: its axes, and the record the
// result reports, which score fills in.
type tunePoint struct {
	axes tuneAxes
	TuneCandidate
}

// Ladders for the discrete axes. The placement and discipline orders
// fix the seed tie-break and the neighbor order.
var (
	tunePlacements = []Placement{AllCPU, MultiAxl, Integrated, Standalone, PCIeIntegrated, BumpInTheWire}
	tuneScheds     = []SchedPolicy{SchedFIFO, SchedPriority, SchedWFQ, SchedEDF, SchedSRS}
	windowLadder   = []Duration{0, 50 * Microsecond, 100 * Microsecond, 200 * Microsecond, 500 * Microsecond, Millisecond}
	batchMaxLadder = []int{0, 4, 8, 16}
	admitLadder    = []int{0, 8, 16, 32, 64}
	retryLadder    = []int{0, 2, 4}
)

// fusionLegal reports whether a placement has the shared DRX unit hop
// fusion requires (the same rule Config.Validate enforces).
func fusionLegal(p Placement) bool {
	return p == Integrated || p == Standalone || p == PCIeIntegrated
}

// Tune searches placements, scheduling disciplines, batching windows,
// admission caps, retry budgets, and cross-hop kernel fusion for the
// configuration of ts.Base that maximizes throughput under the SLO.
// The search seeds from the analytic capacity model and refines by
// greedy coordinate descent; every candidate is scored by a full
// deterministic cluster simulation on the sweep worker pool. The result
// is byte-identical at any worker count, and TuneResult.Winner is a
// complete Spec whose replay reproduces the winning numbers exactly.
func Tune(ts TuneSpec) (TuneResult, error) {
	maxRounds := ts.MaxRounds
	if maxRounds < 0 {
		return TuneResult{}, fmt.Errorf("dmx: tune max rounds %d is negative", maxRounds)
	}
	if maxRounds == 0 {
		maxRounds = 4
	}
	placements := tunePlacements
	if len(ts.Placements) > 0 {
		placements = nil
		for _, tok := range ts.Placements {
			p, ok := specPlacements[strings.ToLower(tok)]
			if !ok {
				return TuneResult{}, fmt.Errorf("dmx: tune placement %q (want one of allcpu, multiaxl, integrated, standalone, pcie, bump)", tok)
			}
			placements = append(placements, p)
		}
	}
	// The base must itself resolve: it fixes the workload, traffic, and
	// fleet shape every candidate shares, and its parsed axis fields are
	// the start point.
	base := ts.Base
	fc, tspec, pipes, err := base.Resolve()
	if err != nil {
		return TuneResult{}, fmt.Errorf("dmx: tune base: %w", err)
	}
	start := tuneAxes{
		Placement:   fc.Base.Placement,
		Sched:       fc.Base.Sched,
		BatchWindow: fc.Base.BatchWindow,
		BatchMax:    base.BatchMax,
		Admit:       base.Admit,
		Retry:       base.Retry,
		Fuse:        base.FuseHops,
	}

	// plan builds a candidate's host plan; an error only means the
	// candidate has no plan to seed from or to enumerate fusions on.
	plan := func(a tuneAxes) (*dmxsys.Plan, error) {
		fc, _, _, err := a.spec(base).Resolve()
		if err != nil {
			return nil, err
		}
		return dmxsys.NewPlan(fc.Base, pipes)
	}

	// Seed: the placement whose capacity bounds sum highest.
	// dmxsys.Plan.Capacities derives them by walking one request of each
	// app through the request machine, so simulation time is spent
	// refining a configuration the cost model already believes in. Ties
	// break toward the earlier placement, so the seed is deterministic.
	res := TuneResult{SeedCapacity: -1}
	var seedPlacement Placement
	for _, p := range placements {
		pl, err := plan(start.at(p))
		if err != nil {
			continue
		}
		caps, err := pl.Capacities()
		if err != nil {
			return TuneResult{}, fmt.Errorf("tune: %v capacity: %w", p, err)
		}
		total := 0.0
		for _, c := range caps {
			total += c.PerSecond
		}
		if total > res.SeedCapacity {
			res.SeedCapacity, seedPlacement = total, p
		}
	}
	if res.SeedCapacity < 0 {
		return TuneResult{}, fmt.Errorf("tune: no placement produced a feasible plan")
	}
	res.SeedPlacement = PlacementToken(seedPlacement)

	// Fusion candidates per placement, enumerated once from an unfused,
	// unbatched plan. Failures just mean no fusion moves there.
	fusible := make(map[Placement][]FusePair)
	for _, p := range placements {
		if !fusionLegal(p) {
			continue
		}
		a := start.clone()
		a.Placement, a.Fuse, a.BatchWindow, a.BatchMax = p, nil, 0, 0
		pl, err := plan(a)
		if err != nil {
			continue
		}
		for _, c := range pl.FusionCandidates() {
			fusible[p] = append(fusible[p], FusePair{App: c.App, Hop: c.Hop})
		}
	}

	// eval simulates one candidate. Errors mark it infeasible; they never
	// abort the search.
	eval := func(a tuneAxes, round int) tunePoint {
		c := tunePoint{axes: a, TuneCandidate: TuneCandidate{Spec: a.spec(base), Round: round}}
		fc, _, _, err := c.Spec.Resolve()
		if err != nil {
			c.Err = err.Error()
			return c
		}
		rep, err := SimulateCluster(fc, tspec, pipes...)
		if err != nil {
			c.Err = err.Error()
			return c
		}
		score(&c.TuneCandidate, rep)
		return c
	}

	// Candidate generation, deduplication, and selection all happen here
	// in deterministic order; only the independent evaluations fan out.
	seed := start.at(seedPlacement)
	seen := map[string]bool{seed.key(): true}
	best := eval(seed, 0)
	points := []tunePoint{best}
	if !best.OK {
		// The seed itself must simulate; a base experiment that cannot
		// run is a caller error, not an unlucky neighbor.
		return TuneResult{}, fmt.Errorf("tune: seed configuration failed: %s", best.Err)
	}
	for round := 1; round <= maxRounds; round++ {
		var moves []tuneAxes
		for _, a := range neighbors(best.axes, placements, fusible) {
			if k := a.key(); !seen[k] {
				seen[k] = true
				moves = append(moves, a)
			}
		}
		if len(moves) == 0 {
			break
		}
		evald, _ := sweep.Map(moves, func(_ int, a tuneAxes) (tunePoint, error) {
			return eval(a, round), nil
		})
		points = append(points, evald...)
		improved := false
		for _, c := range evald {
			if c.OK && better(c, best) {
				best, improved = c, true
			}
		}
		res.Rounds = round
		if !improved {
			break
		}
	}

	res.Winner, res.Goodput, res.P99 = best.Spec, best.Goodput, best.P99
	res.Evaluations = len(points)
	rank(points)
	res.Candidates = make([]TuneCandidate, len(points))
	for i, c := range points {
		res.Candidates[i] = c.TuneCandidate
	}
	return res, nil
}

// score condenses a load report into the candidate's objective: goodput
// counts SLO-satisfying completions per second of makespan, summed over
// apps (every completion without a deadline).
func score(c *TuneCandidate, rep LoadReport) {
	c.OK = true
	for _, a := range rep.PerApp {
		c.Completed += a.Completed
		c.Missed += a.Missed
		c.Rejected += a.Rejected
		c.Abandoned += a.Abandoned
		if a.P99 > c.P99 {
			c.P99 = a.P99
		}
	}
	if sec := rep.Makespan.Seconds(); sec > 0 {
		c.Goodput = float64(c.Completed-c.Missed) / sec
	}
}

// better orders scored points: goodput descending, then p99 ascending,
// then the canonical key, a strict total order, so selection is
// deterministic.
func better(a, b tunePoint) bool {
	if a.Goodput != b.Goodput {
		return a.Goodput > b.Goodput
	}
	if a.P99 != b.P99 {
		return a.P99 < b.P99
	}
	return a.axes.key() < b.axes.key()
}

// neighbors generates every one-axis move from cur, in deterministic
// order. Cross-regime moves repair conflicting axes instead of being
// skipped: turning batching on drops fusion, leaving a fused placement
// drops the fusion set, and closing the window zeroes the cap.
func neighbors(cur tuneAxes, placements []Placement, fusible map[Placement][]FusePair) []tuneAxes {
	var out []tuneAxes
	for _, p := range placements {
		if p == cur.Placement {
			continue
		}
		out = append(out, cur.at(p))
	}
	for _, sched := range tuneScheds {
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

func fuseIndex(fuse []FusePair, p FusePair) int {
	for i, f := range fuse {
		if f == p {
			return i
		}
	}
	return -1
}

// rank orders points feasible-first by better, then infeasible by key:
// a stable presentation independent of evaluation order.
func rank(points []tunePoint) {
	sort.SliceStable(points, func(i, j int) bool {
		a, b := points[i], points[j]
		if a.OK != b.OK {
			return a.OK
		}
		if !a.OK {
			return a.axes.key() < b.axes.key()
		}
		return better(a, b)
	})
}
