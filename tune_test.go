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
// the same arithmetic tune.scoreOf applies, duplicated here so the
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
