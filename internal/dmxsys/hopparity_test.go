package dmxsys_test

// The per-hop DRX service times are resolved once, at plan time, onto
// each hop. These gates pin that the resolution is exact: every hop's
// stored time equals the process-wide timing of its kernel, and what is
// built from it — the capacity bounds Capacities derives and the fusion
// candidates — is byte-identical to the values recorded in
// testdata/hop_parity.txt.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/workload"
)

// parityPipelines is the Table I suite plus PIR+NER at test scale.
func parityPipelines(t *testing.T) []*dmxsys.Pipeline {
	t.Helper()
	pipes := suitePipelines(t)
	ner, err := workload.PIRWithNER(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	return append(pipes, ner.Pipeline)
}

func TestPlanHopDRXMatchesTiming(t *testing.T) {
	pipes := parityPipelines(t)
	placements := []dmxsys.Placement{
		dmxsys.AllCPU, dmxsys.MultiAxl, dmxsys.Integrated,
		dmxsys.Standalone, dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire,
	}
	var sb strings.Builder
	for _, p := range placements {
		cfg := dmxsys.DefaultConfig(p)
		plan, err := dmxsys.NewPlan(cfg, pipes)
		if err != nil {
			t.Fatal(err)
		}
		for i, pipe := range pipes {
			got := plan.HopDRX(i)
			if !p.UsesDRX() {
				if got != nil {
					t.Errorf("%v/%s: hop times %v on a placement without DRX", p, pipe.Name, got)
				}
				continue
			}
			if len(got) != len(pipe.Hops) {
				t.Fatalf("%v/%s: %d hop times for %d hops", p, pipe.Name, len(got), len(pipe.Hops))
			}
			for k, h := range pipe.Hops {
				want, err := dmxsys.DRXTimeOf(cfg.DRX, h.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				if got[k] != want {
					t.Errorf("%v/%s hop %d: plan holds %v, kernel times %v", p, pipe.Name, k, got[k], want)
				}
			}
		}
		writeParity(t, &sb, p.String(), plan)

		// The fused variant: the first legal pair of every app, so the
		// split of the merged program (which reads the hop times) is
		// pinned too.
		cands := plan.FusionCandidates()
		if len(cands) == 0 {
			continue
		}
		fcfg := cfg
		seen := make(map[int]bool)
		for _, c := range cands {
			if !seen[c.App] {
				seen[c.App] = true
				fcfg.FuseHops = append(fcfg.FuseHops, dmxsys.FusePair{App: c.App, Hop: c.Hop})
			}
		}
		fplan, err := dmxsys.NewPlan(fcfg, pipes)
		if err != nil {
			t.Fatal(err)
		}
		writeParity(t, &sb, p.String()+"+fused", fplan)
	}

	golden := filepath.Join("testdata", "hop_parity.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	gotLines := strings.Split(sb.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("parity dump has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// writeParity renders a plan's capacity bounds and fusion candidates.
func writeParity(t *testing.T, sb *strings.Builder, label string, plan *dmxsys.Plan) {
	t.Helper()
	caps, err := plan.Capacities()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, c := range caps {
		fmt.Fprintf(sb, "%s capacity app=%s per_request=%d resource=%s per_second=%.9g\n",
			label, plan.Pipeline(i).Name, int64(c.PerRequest), c.Resource, c.PerSecond)
	}
	for _, c := range plan.FusionCandidates() {
		fmt.Fprintf(sb, "%s fusion app=%d hop=%d unfused=%d fused=%d\n",
			label, c.App, c.Hop, int64(c.Unfused), int64(c.Fused))
	}
}
