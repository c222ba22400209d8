package dmx

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmx/internal/sweep"
)

// tuneBase is the pinned tuning scenario the contract tests share: a
// two-app test-scale mix driven past single-host capacity with a tight
// SLO, so goodput rewards coordinated moves (placement + shedding /
// scheduling), not any one knob alone.
func tuneBase() Spec {
	return Spec{
		Apps:     []string{"personal-info-redaction", "sound-detection"},
		Scale:    "test",
		Arrival:  "poisson",
		Rate:     150000,
		Requests: 32,
		Seed:     11,
		SLO:      "100us",
	}
}

func tuneSpec() TuneSpec {
	return TuneSpec{
		Base:       tuneBase(),
		Placements: []string{"multiaxl", "integrated", "standalone", "pcie", "bump"},
		MaxRounds:  3,
	}
}

// scoreReport recomputes the tuner's objective from a replayed report —
// the same arithmetic score applies, duplicated here so the
// replay-identity test cannot pass vacuously.
func scoreReport(rep LoadReport) (goodput float64, p99 Duration) {
	completed, missed := 0, 0
	for _, a := range rep.PerApp {
		completed += a.Completed
		missed += a.Missed
		if a.P99 > p99 {
			p99 = a.P99
		}
	}
	if sec := rep.Makespan.Seconds(); sec > 0 {
		goodput = float64(completed-missed) / sec
	}
	return goodput, p99
}

func TestTuneDeterministicAcrossWorkers(t *testing.T) {
	var base TuneResult
	for i, workers := range []int{1, 2, 8} {
		prev := sweep.SetWorkers(workers)
		res, err := Tune(tuneSpec())
		sweep.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res
			if res.Evaluations < 10 {
				t.Fatalf("only %d evaluations; the search barely ran", res.Evaluations)
			}
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("TuneResult at %d workers diverges from 1 worker:\n%s\nvs\n%s",
				workers, res, base)
		}
	}
}

func TestTuneWinnerReplayExact(t *testing.T) {
	res, err := Tune(tuneSpec())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.Winner.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	goodput, p99 := scoreReport(rep)
	if goodput != res.Goodput || p99 != res.P99 {
		t.Fatalf("replay diverges: goodput %v vs %v, p99 %v vs %v",
			goodput, res.Goodput, p99, res.P99)
	}
	// The ranked list leads with the winner.
	if top := res.Candidates[0]; !top.OK || !reflect.DeepEqual(top.Spec, res.Winner) ||
		top.Goodput != res.Goodput || top.P99 != res.P99 {
		t.Errorf("Candidates[0] %s is not the winner %s", specAxesLine(top.Spec), specAxesLine(res.Winner))
	}
	// The winner document itself must round-trip.
	b, err := MarshalSpec(res.Winner)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res.Winner) {
		t.Fatal("winner spec does not round-trip through JSON")
	}
}

// TestTunedBeatsSingleAxisGrid pins the scenario where coordinate
// descent earns its keep: the tuned configuration must strictly beat
// every single-axis deviation from the base — the best any grid sweep
// over one knob could find.
func TestTunedBeatsSingleAxisGrid(t *testing.T) {
	ts := tuneSpec()
	res, err := Tune(ts)
	if err != nil {
		t.Fatal(err)
	}

	evalSpec := func(s Spec) (float64, bool) {
		rep, err := s.Simulate()
		if err != nil {
			return 0, false
		}
		g, _ := scoreReport(rep)
		return g, true
	}
	var grid []Spec
	base := ts.Base
	grid = append(grid, base)
	for _, p := range ts.Placements {
		s := base
		s.Placement = p
		grid = append(grid, s)
	}
	for _, d := range []string{"fifo", "priority", "wfq", "edf", "srs"} {
		s := base
		s.Discipline = d
		grid = append(grid, s)
	}
	for _, w := range []string{"50us", "100us", "200us", "500us", "1ms"} {
		s := base
		s.BatchWindow = w
		grid = append(grid, s)
	}
	for _, a := range []int{8, 16, 32, 64} {
		s := base
		s.Admit = a
		grid = append(grid, s)
	}
	for _, r := range []int{2, 4} {
		s := base
		s.Retry = r
		grid = append(grid, s)
	}

	bestGrid, bestAt := -1.0, ""
	for _, s := range grid {
		if g, ok := evalSpec(s); ok && g > bestGrid {
			bestGrid, bestAt = g, specAxesLine(s)
		}
	}
	t.Logf("tuned %.2f req/s (%s) vs best single-axis %.2f req/s (%s), %d evaluations",
		res.Goodput, specAxesLine(res.Winner), bestGrid, bestAt, res.Evaluations)
	if res.Goodput <= bestGrid {
		t.Fatalf("tuned goodput %.2f does not beat the best single-axis grid point %.2f (%s)",
			res.Goodput, bestGrid, bestAt)
	}
}

func TestTuneRejectsBadSpecs(t *testing.T) {
	ts := tuneSpec()
	ts.Base.Arrival = ""
	if _, err := Tune(ts); err == nil || !strings.Contains(err.Error(), "arrival") {
		t.Errorf("base without arrival: %v", err)
	}
	ts = tuneSpec()
	ts.Placements = []string{"fpga"}
	if _, err := Tune(ts); err == nil || !strings.Contains(err.Error(), "fpga") {
		t.Errorf("bad placement token: %v", err)
	}
	ts = tuneSpec()
	ts.Base.Placement = "warp"
	if _, err := Tune(ts); err == nil || !strings.Contains(err.Error(), "placement") {
		t.Errorf("bad base placement: %v", err)
	}
	ts = tuneSpec()
	ts.MaxRounds = -1
	if _, err := Tune(ts); err == nil || !strings.Contains(err.Error(), "max rounds -1") {
		t.Errorf("negative max rounds: %v", err)
	}
	// A fusion pair past the app's last hop resolves (Resolve does not
	// build plans) but leaves the only placement without a plan to seed.
	ts = TuneSpec{
		Base: Spec{Apps: []string{"pir-ner"}, Scale: "test", Arrival: "poisson",
			Rate: 120000, Requests: 24, Seed: 3, FuseHops: []FusePair{{App: 0, Hop: 5}}},
		Placements: []string{"integrated"},
	}
	if _, err := Tune(ts); err == nil || !strings.Contains(err.Error(), "tune: no placement produced a feasible plan") {
		t.Errorf("infeasible seed: %v", err)
	}
}

// TestTuneGolden pins the whole search, seed included, for three
// scenarios: the stock tuning scenario, a one-app pir-ner document (the
// spec CI tunes), and the same document started fused on the three
// placements that can fuse its two hops, so the seed is a fused plan's
// bound and the descent toggles fused pairs. The seed comes from the
// plans' capacity bounds, so a drift in any bound that moves the seed,
// the candidate order, or a score shows up here. Regenerate
// deliberately with:
//
//	go test -run TestTuneGolden -update .
func TestTuneGolden(t *testing.T) {
	pirNER := tuneSpec()
	pirNER.Base = Spec{
		Apps:     []string{"pir-ner"},
		Scale:    "test",
		Arrival:  "poisson",
		Rate:     120000,
		Requests: 24,
		Seed:     3,
		SLO:      "200us",
	}
	fused := pirNER
	fused.Base.FuseHops = []FusePair{{App: 0, Hop: 0}}
	fused.Placements = []string{"integrated", "standalone", "pcie"}
	var b strings.Builder
	for _, sc := range []struct {
		name string
		ts   TuneSpec
	}{{"stock", tuneSpec()}, {"pir-ner", pirNER}, {"pir-ner-fused", fused}} {
		res, err := Tune(sc.ts)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(&b, "%s seed=%s capacity=%.9g evaluations=%d rounds=%d\n",
			sc.name, res.SeedPlacement, res.SeedCapacity, res.Evaluations, res.Rounds)
		for i, c := range res.Candidates {
			fmt.Fprintf(&b, "%s #%d round=%d %s", sc.name, i+1, c.Round, specAxesLine(c.Spec))
			if !c.OK {
				fmt.Fprintf(&b, " infeasible: %s\n", c.Err)
				continue
			}
			fmt.Fprintf(&b, " goodput=%.9g p99=%d completed=%d missed=%d rejected=%d abandoned=%d\n",
				c.Goodput, int64(c.P99), c.Completed, c.Missed, c.Rejected, c.Abandoned)
		}
	}
	golden := filepath.Join("testdata", "tune_golden.txt")
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Errorf("tune dump has %d lines, golden %d", len(got), len(wantLines))
	}
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], wantLines[i])
		}
	}
}

func TestAxesKeyCanonicalizesFuse(t *testing.T) {
	a := tuneAxes{Fuse: []FusePair{{App: 1, Hop: 2}, {App: 0, Hop: 0}}}
	b := tuneAxes{Fuse: []FusePair{{App: 0, Hop: 0}, {App: 1, Hop: 2}}}
	if a.key() != b.key() {
		t.Errorf("permuted fusion sets got distinct keys:\n%s\n%s", a.key(), b.key())
	}
	if a.key() == (tuneAxes{}).key() {
		t.Error("fused and unfused axes share a key")
	}
}

func TestNeighborsRepairConflicts(t *testing.T) {
	fusible := map[Placement][]FusePair{Integrated: {{App: 0, Hop: 0}}}
	cur := tuneAxes{Placement: Integrated, Fuse: []FusePair{{App: 0, Hop: 0}}}
	unfused := false
	for _, n := range neighbors(cur, tunePlacements, fusible) {
		if n.BatchWindow > 0 && len(n.Fuse) > 0 {
			t.Errorf("neighbor %s mixes batching and fusion", n.key())
		}
		if !fusionLegal(n.Placement) && len(n.Fuse) > 0 {
			t.Errorf("neighbor %s fuses on a placement without a shared DRX", n.key())
		}
		if n.BatchWindow == 0 && n.BatchMax != 0 {
			t.Errorf("neighbor %s caps a closed window", n.key())
		}
		if n.Placement == Integrated && len(n.Fuse) == 0 && n.BatchWindow == 0 {
			unfused = true
		}
	}
	if !unfused {
		t.Error("no neighbor unfuses the current fusion pair")
	}
}

func TestNeighborsDeterministic(t *testing.T) {
	fusible := map[Placement][]FusePair{Standalone: {{App: 0, Hop: 1}}}
	cur := tuneAxes{Placement: Standalone, BatchWindow: 100 * Microsecond, BatchMax: 4}
	a, b := neighbors(cur, tunePlacements, fusible), neighbors(cur, tunePlacements, fusible)
	if !reflect.DeepEqual(a, b) {
		t.Error("neighbor generation is not deterministic")
	}
}

func TestRankOrdersFeasibleFirst(t *testing.T) {
	points := []tunePoint{
		{axes: tuneAxes{Admit: 1}, TuneCandidate: TuneCandidate{Err: "boom"}},
		{axes: tuneAxes{Admit: 2}, TuneCandidate: TuneCandidate{OK: true, Goodput: 10, P99: 5}},
		{axes: tuneAxes{Admit: 3}, TuneCandidate: TuneCandidate{OK: true, Goodput: 20, P99: 9}},
		{axes: tuneAxes{Admit: 4}, TuneCandidate: TuneCandidate{OK: true, Goodput: 10, P99: 3}},
	}
	rank(points)
	for i, admit := range []int{3, 4, 2, 1} {
		if points[i].axes.Admit != admit {
			t.Fatalf("rank[%d].Admit = %d, want %d (order %+v)", i, points[i].axes.Admit, admit, points)
		}
	}
}
