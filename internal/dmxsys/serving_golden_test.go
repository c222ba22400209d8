package dmxsys_test

// The serving golden pins the request machine byte for byte where the
// stream golden cannot reach: batching, the SLO disciplines, admission
// control, fault recovery and hop fusion. Each cell runs one RunLoad
// with a recorder attached and hashes the LoadReport text plus the
// Perfetto JSON of every event; the same cell untraced must produce the
// same report, and the trace must validate. Run with -update only to
// regenerate after an intentional timing change.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// servingFaults injects every fault mechanism — transient DRX errors, DRX
// outages, link outages, accelerator stalls — at rates a short load run
// observes.
func servingFaults(c *dmxsys.Config) {
	c.Faults = &faults.Plan{
		Seed:              42,
		DRXMTBF:           600 * sim.Microsecond,
		DRXRepair:         150 * sim.Microsecond,
		TransientProb:     0.15,
		LinkMTBF:          500 * sim.Microsecond,
		LinkRepair:        100 * sim.Microsecond,
		LinkDegradeFactor: 0.25,
		StallMTBF:         500 * sim.Microsecond,
		StallRepair:       150 * sim.Microsecond,
	}
	c.Retry = faults.DefaultRetry()
	c.Retry.StageDeadline = 150 * sim.Microsecond
}

func servingBatched(c *dmxsys.Config) {
	c.BatchWindow = 200 * sim.Microsecond
	c.BatchMax = 8
}

// servingCell is one golden configuration: a Config mutation plus the
// load it serves.
type servingCell struct {
	name string
	mut  func(c *dmxsys.Config, plan *dmxsys.Plan) bool // false = cell does not apply
	spec traffic.Spec
}

func servingCells() []servingCell {
	poisson := traffic.Spec{Arrival: traffic.Poisson, Rate: 60000, Requests: 48, Seed: 7}
	heavy := poisson
	heavy.Rate = 150000
	slo := poisson
	slo.Deadline = 400 * sim.Microsecond
	slo.AppDeadlines = []sim.Duration{150 * sim.Microsecond}
	slow := poisson
	slow.Rate = 20000
	return []servingCell{
		{"batched-fifo", func(c *dmxsys.Config, _ *dmxsys.Plan) bool {
			servingBatched(c)
			return true
		}, poisson},
		{"batched-edf-slo-admit", func(c *dmxsys.Config, _ *dmxsys.Plan) bool {
			servingBatched(c)
			c.Sched = dmxsys.SchedEDF
			c.AdmitLimit = 12
			return true
		}, slo},
		{"batched-srs", func(c *dmxsys.Config, _ *dmxsys.Plan) bool {
			servingBatched(c)
			c.Sched = dmxsys.SchedSRS
			return true
		}, heavy},
		{"batched-faults", func(c *dmxsys.Config, _ *dmxsys.Plan) bool {
			servingBatched(c)
			servingFaults(c)
			return true
		}, poisson},
		{"batched-pairs-faults", func(c *dmxsys.Config, _ *dmxsys.Plan) bool {
			// Pairs peel down to one member often, so a shrunk batch
			// meets a second transient at a later hop.
			servingBatched(c)
			c.BatchMax = 2
			servingFaults(c)
			c.Faults.TransientProb = 0.3
			return true
		}, poisson},
		{"unbatched-faults", func(c *dmxsys.Config, _ *dmxsys.Plan) bool {
			servingFaults(c)
			return true
		}, poisson},
		{"fused-faults", func(c *dmxsys.Config, plan *dmxsys.Plan) bool {
			for _, fc := range plan.FusionCandidates() {
				c.FuseHops = append(c.FuseHops, dmxsys.FusePair{App: fc.App, Hop: fc.Hop})
			}
			servingFaults(c)
			return len(c.FuseHops) > 0
		}, poisson},
		{"slow-fifo", func(c *dmxsys.Config, _ *dmxsys.Plan) bool {
			servingSlowDRX(c)
			return true
		}, slow},
		{"slow-priority-tie", func(c *dmxsys.Config, _ *dmxsys.Plan) bool {
			servingSlowDRX(c)
			c.Sched = dmxsys.SchedPriority
			c.AppPriority = []int{1, 0, 0}
			return true
		}, slow},
		{"slow-priority", func(c *dmxsys.Config, _ *dmxsys.Plan) bool {
			servingSlowDRX(c)
			c.Sched = dmxsys.SchedPriority
			c.AppPriority = []int{0, 1, 2}
			return true
		}, slow},
		{"slow-wfq", func(c *dmxsys.Config, _ *dmxsys.Plan) bool {
			servingSlowDRX(c)
			c.Sched = dmxsys.SchedWFQ
			return true
		}, slow},
	}
}

// servingSlowDRX starves the DRX of DRAM bandwidth so requests of
// different apps queue at it together: at the default DRX the backlog
// never holds two apps at once, and the class disciplines serve in
// FIFO's order.
func servingSlowDRX(c *dmxsys.Config) {
	c.DRX.DRAMBytesPerSec = 1e9
}

// servingPipelines is two Table I chains plus PIR+NER, whose adjacent
// hops fuse under every shared-DRX placement.
func servingPipelines(t *testing.T) []*dmxsys.Pipeline {
	t.Helper()
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	ner, err := workload.PIRWithNER(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	return []*dmxsys.Pipeline{benches[0].Pipeline, benches[1].Pipeline, ner.Pipeline}
}

// servingTally sums the recovery counters of every cell sharing a name,
// so the test can insist the faulted cells exercise each mechanism.
type servingTally struct{ batches, retries, timeouts, degraded, abandoned int }

func (t *servingTally) add(rep traffic.LoadReport) {
	for _, al := range rep.PerApp {
		t.batches += al.Batches
		t.retries += al.Retries
		t.timeouts += al.Timeouts
		t.degraded += al.Degraded
		t.abandoned += al.Abandoned
	}
}

// servingRun serves one cell, traced or not, and returns the report.
func servingRun(t *testing.T, cfg dmxsys.Config, pipes []*dmxsys.Pipeline, spec traffic.Spec) traffic.LoadReport {
	t.Helper()
	s, err := dmxsys.New(cfg, pipes)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunLoad(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestServingGoldenAcrossPlacements(t *testing.T) {
	pipes := servingPipelines(t)
	placements := []dmxsys.Placement{
		dmxsys.MultiAxl, dmxsys.Integrated, dmxsys.Standalone,
		dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire,
	}
	// Each placement serves its cells in a parallel subtest of one group;
	// the group returns once every placement has, and the cross-placement
	// checks below read the results in placement order.
	runs := make([][]servedCell, len(placements))
	t.Run("placements", func(t *testing.T) {
		for i, p := range placements {
			t.Run(strings.ReplaceAll(p.String(), " ", "-"), func(t *testing.T) {
				t.Parallel()
				runs[i] = servePlacement(t, p, pipes)
			})
		}
	})
	got := make(map[string]string)
	var keys []string
	tally := make(map[string]*servingTally)
	for _, cells := range runs {
		for _, c := range cells {
			got[c.key] = c.hash
			keys = append(keys, c.key)
			if tally[c.name] == nil {
				tally[c.name] = &servingTally{}
			}
			tally[c.name].add(c.quiet)
		}
	}

	for name, tl := range tally {
		batched := strings.HasPrefix(name, "batched")
		if batched && tl.batches == 0 {
			t.Errorf("%s: no batch formed", name)
		}
		if strings.HasSuffix(name, "faults") &&
			(tl.retries == 0 || tl.timeouts == 0 || tl.degraded == 0 || tl.abandoned == 0) {
			t.Errorf("%s: the fault plan leaves a recovery path unexercised: %+v", name, *tl)
		}
	}

	// The slow cells exist to pin the class disciplines, so each must
	// reorder the backlog somewhere.
	for _, name := range []string{"slow-priority-tie", "slow-priority", "slow-wfq"} {
		differs := false
		for _, p := range placements {
			differs = differs || got[goldenKey(name, p)] != got[goldenKey("slow-fifo", p)]
		}
		if !differs {
			t.Errorf("%s: matches slow-fifo under every placement", name)
		}
	}

	golden := filepath.Join("testdata", "serving_golden.txt")
	if *update {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if fields := strings.Fields(line); len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cells, run produced %d", len(want), len(got))
	}
	for _, k := range keys {
		if want[k] == "" {
			t.Errorf("%s: missing from golden file", k)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: serving output changed: hash %s, golden %s", k, got[k], want[k])
		}
	}
}

// servedCell is one golden cell's outcome: its key, the hash of its
// traced report and trace, and its untraced report.
type servedCell struct {
	name, key, hash string
	quiet           traffic.LoadReport
}

// servePlacement serves every cell that applies under placement p, in
// cell order, checking that the recorder leaves each report unchanged
// and that each trace validates.
func servePlacement(t *testing.T, p dmxsys.Placement, pipes []*dmxsys.Pipeline) []servedCell {
	plan, err := dmxsys.NewPlan(dmxsys.DefaultConfig(p), pipes)
	if err != nil {
		t.Fatal(err)
	}
	var out []servedCell
	for _, cell := range servingCells() {
		cfg := dmxsys.DefaultConfig(p)
		if !cell.mut(&cfg, plan) {
			continue
		}
		key := goldenKey(cell.name, p)
		quietRep := servingRun(t, cfg, pipes, cell.spec)
		quiet := quietRep.String()

		cfg.Obs = obs.New()
		rep := servingRun(t, cfg, pipes, cell.spec).String()
		if rep != quiet {
			t.Errorf("%s: the recorder perturbed the report:\ntraced:\n%s\nuntraced:\n%s", key, rep, quiet)
		}
		var trace bytes.Buffer
		if err := obs.WriteTrace(&trace, cfg.Obs.Events()); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ValidateTrace(trace.Bytes()); err != nil {
			t.Errorf("%s: trace does not validate: %v", key, err)
		}
		out = append(out, servedCell{name: cell.name, key: key, hash: hashDump(rep + trace.String()), quiet: quietRep})
	}
	return out
}
