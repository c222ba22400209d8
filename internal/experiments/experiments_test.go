package experiments

import (
	"strings"
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/pcie"
)

// These tests assert the *shape* of every reproduced table and figure —
// who wins, how trends move with concurrency and configuration — rather
// than absolute numbers, per the reproduction contract in DESIGN.md.
// They run the same paper-scale simulations as cmd/dmxbench (DRX timing
// results are memoized process-wide, so the suite stays fast after the
// first experiment).

func TestTable1Inventory(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("Table I has %d rows, want 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The paper's restructured batches are 6–16 MB.
		if row.BatchMB < 5 || row.BatchMB > 17 {
			t.Errorf("%s: batch %.1f MB outside Table I envelope", row.Benchmark, row.BatchMB)
		}
		if row.Kernel1 == "" || row.Kernel2 == "" || row.Restructuring == "" {
			t.Errorf("%s: incomplete row %+v", row.Benchmark, row)
		}
	}
	if !strings.Contains(res.Render(), "database-hash-join") {
		t.Error("render missing benchmarks")
	}
}

func TestFig3MotivationShape(t *testing.T) {
	res, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// Per-kernel speedup near the paper's 6.5x geomean.
	if res.PerKernelSpeedup < 5.5 || res.PerKernelSpeedup > 7.5 {
		t.Errorf("per-kernel speedup %.2f, want ~6.5", res.PerKernelSpeedup)
	}
	// End-to-end gain is far below the per-kernel gain at every
	// concurrency — the paper's core motivation (I1).
	for n, s := range res.EndToEnd {
		if s <= 1 {
			t.Errorf("%d apps: Multi-Axl not faster than All-CPU (%.2fx)", n, s)
		}
		if s >= res.PerKernelSpeedup {
			t.Errorf("%d apps: end-to-end %.2fx not below per-kernel %.2fx", n, s, res.PerKernelSpeedup)
		}
	}
	// Multi-Axl's restructure share dominates and grows with load.
	var axl1, axl15 float64
	for _, row := range res.Rows {
		if row.Config == dmxsys.MultiAxl.String() {
			if row.Apps == 1 {
				axl1 = row.RestructShare
			}
			if row.Apps == 15 {
				axl15 = row.RestructShare
			}
		}
	}
	if axl1 < 0.35 || axl1 > 0.85 {
		t.Errorf("Multi-Axl 1-app restructure share %.2f outside the paper's regime", axl1)
	}
	if axl15 <= axl1 {
		t.Errorf("restructure share did not grow with concurrency: %.2f → %.2f", axl1, axl15)
	}
}

func TestFig5CharacterizationShape(t *testing.T) {
	res, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 5 {
		t.Fatalf("%d profiles, want 5", len(res.Profiles))
	}
	for _, p := range res.Profiles {
		be := p.BackendCorePct + p.BackendMemPct
		if be < 53-0.1 || be > 77.6+0.1 {
			t.Errorf("%s: backend %.1f%% outside 53–77.6%%", p.Kernel, be)
		}
		if p.L1DMPKI < 50 || p.L1DMPKI > 215 {
			t.Errorf("%s: L1D MPKI %.1f outside 50–215", p.Kernel, p.L1DMPKI)
		}
		if p.L1IMPKI > 7.8 {
			t.Errorf("%s: L1I MPKI %.1f not small", p.Kernel, p.L1IMPKI)
		}
	}
}

func TestFig11HeadlineShape(t *testing.T) {
	res, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	// DMX wins on average everywhere and the gain grows with load
	// (paper: 3.4–8.2x across 1–15 apps).
	prev := 0.0
	for _, n := range Concurrencies {
		avg := res.Average[n]
		if avg <= 1 {
			t.Errorf("%d apps: average speedup %.2fx not > 1", n, avg)
		}
		if avg < prev {
			t.Errorf("%d apps: average %.2fx dropped below %.2fx", n, avg, prev)
		}
		prev = avg
	}
	if res.Average[15] < 4 {
		t.Errorf("15-app average %.2fx far below the paper's 8.2x regime", res.Average[15])
	}
	// Every benchmark individually benefits at scale.
	for name, s := range res.Speedup[15] {
		if s <= 1.5 {
			t.Errorf("%s: 15-app speedup %.2fx too small", name, s)
		}
	}
}

func TestFig12BreakdownShape(t *testing.T) {
	res, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range Concurrencies {
		axl, ok1 := res.Share(dmxsys.MultiAxl.String(), n)
		dmx, ok2 := res.Share(dmxsys.BumpInTheWire.String(), n)
		if !ok1 || !ok2 {
			t.Fatalf("missing shares for %d apps", n)
		}
		// Paper: 55.7–80.8%% baseline restructure share collapses to
		// ≤21%% under DMX.
		if axl < 0.4 {
			t.Errorf("%d apps: baseline restructure share %.2f too small", n, axl)
		}
		if dmx >= axl/2 {
			t.Errorf("%d apps: DMX restructure share %.2f not well below baseline %.2f", n, dmx, axl)
		}
		if dmx > 0.30 {
			t.Errorf("%d apps: DMX restructure share %.2f above the paper's regime", n, dmx)
		}
	}
}

func TestFig13ThroughputShape(t *testing.T) {
	res, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, n := range Concurrencies {
		avg := res.Average[n]
		if avg <= 1 {
			t.Errorf("%d apps: throughput improvement %.2fx not > 1", n, avg)
		}
		if avg < prev {
			t.Errorf("%d apps: improvement %.2fx dropped below %.2fx", n, avg, prev)
		}
		prev = avg
	}
	// Personal Info Redaction is the weakest (regex accelerator bound).
	imp := res.Improvement[15]
	for name, v := range imp {
		if name != "personal-info-redaction" && v < imp["personal-info-redaction"] {
			t.Errorf("%s (%.2fx) below personal-info-redaction (%.2fx); paper says PIR is the laggard",
				name, v, imp["personal-info-redaction"])
		}
	}
}

func TestFig14PlacementOrdering(t *testing.T) {
	res, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 10, 15} {
		integ := res.Speedup[dmxsys.Integrated][n]
		stand := res.Speedup[dmxsys.Standalone][n]
		bump := res.Speedup[dmxsys.BumpInTheWire][n]
		pcieI := res.Speedup[dmxsys.PCIeIntegrated][n]
		if !(integ <= stand && stand <= bump && bump <= pcieI) {
			t.Errorf("%d apps: ordering violated: integ %.2f stand %.2f bump %.2f pcie %.2f",
				n, integ, stand, bump, pcieI)
		}
	}
}

func TestFig15EnergyShape(t *testing.T) {
	res, err := Fig15()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range Concurrencies {
		for p, m := range res.Reduction {
			if m[n] <= 1 {
				t.Errorf("%v at %d apps: energy reduction %.2fx not > 1", p, n, m[n])
			}
		}
	}
	// Standalone overtakes bump-in-the-wire at scale (amortized DRX
	// glue, Fig. 15's 10/15-app result).
	if res.Reduction[dmxsys.Standalone][15] < res.Reduction[dmxsys.BumpInTheWire][15] {
		t.Errorf("standalone (%.2fx) below bump-in-the-wire (%.2fx) at 15 apps",
			res.Reduction[dmxsys.Standalone][15], res.Reduction[dmxsys.BumpInTheWire][15])
	}
	// Integrated is the weakest at scale.
	if res.Reduction[dmxsys.Integrated][15] >= res.Reduction[dmxsys.Standalone][15] {
		t.Error("integrated DRX should trail standalone in energy at 15 apps")
	}
}

func TestFig16ThreeKernelShape(t *testing.T) {
	res, err := Fig16()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, n := range Concurrencies {
		s := res.Speedup[n]
		if s <= 1 {
			t.Errorf("%d apps: 3-kernel speedup %.2fx not > 1", n, s)
		}
		if s < prev {
			t.Errorf("%d apps: speedup %.2fx dropped below %.2fx", n, s, prev)
		}
		prev = s
		// DMX makes kernels the dominant component again.
		base := res.KernelShare[dmxsys.MultiAxl.String()][n]
		dmx := res.KernelShare[dmxsys.BumpInTheWire.String()][n]
		if dmx <= base {
			t.Errorf("%d apps: DMX kernel share %.2f not above baseline %.2f", n, dmx, base)
		}
	}
}

func TestFig17CollectivesShape(t *testing.T) {
	res, err := Fig17()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range CollectiveSizes {
		if res.Broadcast[n] <= 1 {
			t.Errorf("broadcast n=%d: %.2fx not > 1", n, res.Broadcast[n])
		}
		if res.AllReduce[n] <= 1 {
			t.Errorf("all-reduce n=%d: %.2fx not > 1", n, res.AllReduce[n])
		}
		// All-reduce benefits more (it adds DRX-accelerated summation).
		if res.AllReduce[n] < res.Broadcast[n] {
			t.Errorf("n=%d: all-reduce %.2fx below broadcast %.2fx", n, res.AllReduce[n], res.Broadcast[n])
		}
	}
	// The largest configuration shows the strongest gain (hierarchical
	// forwarding vs the baseline's sequential scatter).
	if res.Broadcast[32] < res.Broadcast[16] {
		t.Error("broadcast speedup did not recover at 32 accelerators")
	}
}

func TestFig18LaneSweepShape(t *testing.T) {
	res, err := Fig18()
	if err != nil {
		t.Fatal(err)
	}
	// Monotone non-decreasing, saturating at 128 (paper's default).
	if res.Speedup[64] < res.Speedup[32] || res.Speedup[128] < res.Speedup[64] {
		t.Errorf("speedup not monotone across lanes: %v", res.Speedup)
	}
	gainTo128 := res.Speedup[128] - res.Speedup[32]
	gainTo256 := res.Speedup[256] - res.Speedup[128]
	if gainTo256 > gainTo128 {
		t.Errorf("no saturation at 128 lanes: +%.2f then +%.2f", gainTo128, gainTo256)
	}
}

func TestFig19GenerationShape(t *testing.T) {
	res, err := Fig19()
	if err != nil {
		t.Fatal(err)
	}
	// DMX keeps a clear advantage on every generation (the paper's
	// conclusion: the bottleneck is restructuring compute, not just the
	// interconnect).
	for _, g := range GenSweep {
		for _, n := range Concurrencies {
			if res.Speedup[g][n] <= 1 {
				t.Errorf("%v, %d apps: %.2fx not > 1", g, n, res.Speedup[g][n])
			}
		}
	}
	// At low concurrency newer generations slightly erode the advantage
	// (faster links help the transfer-heavy baseline more).
	if res.Speedup[pcie.Gen4][1] > res.Speedup[pcie.Gen3][1]+0.01 {
		t.Errorf("Gen4 1-app speedup %.2fx above Gen3 %.2fx; paper expects slight decrease",
			res.Speedup[pcie.Gen4][1], res.Speedup[pcie.Gen3][1])
	}
}

func TestRendersNonEmpty(t *testing.T) {
	res, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Render()) < 100 {
		t.Error("Fig5 render suspiciously short")
	}
}

func TestExperimentDeterminism(t *testing.T) {
	// Two independent regenerations of a figure must agree bit-for-bit —
	// the reproduction contract of DESIGN.md §6. Each starts from an
	// empty grid, so the second simulates its cells again.
	resetGrid()
	a, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	resetGrid()
	b, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for p, m := range a.Speedup {
		for n, v := range m {
			if b.Speedup[p][n] != v {
				t.Errorf("%v at %d apps: %v vs %v across runs", p, n, v, b.Speedup[p][n])
			}
		}
	}
}

func TestAllRendersContainHeadlines(t *testing.T) {
	// Renders are the user-facing artifact of cmd/dmxbench; every one
	// must carry its figure's headline rows. (Generators here are warm
	// from earlier tests via the process-wide DRX cache.)
	type rcase struct {
		name, needle string
		run          func() (interface{ Render() string }, error)
	}
	cases := []rcase{
		{"fig11", "average (geomean)", func() (interface{ Render() string }, error) { return Fig11() }},
		{"fig13", "average (geomean)", func() (interface{ Render() string }, error) { return Fig13() }},
		{"fig14", "PCIe-Integrated", func() (interface{ Render() string }, error) { return Fig14() }},
		{"fig15", "not evaluated for energy", func() (interface{ Render() string }, error) { return Fig15() }},
		{"fig16", "kernel share", func() (interface{ Render() string }, error) { return Fig16() }},
		{"fig17", "all-reduce", func() (interface{ Render() string }, error) { return Fig17() }},
		{"fig18", "RE lanes", func() (interface{ Render() string }, error) { return Fig18() }},
		{"fig19", "Gen5", func() (interface{ Render() string }, error) { return Fig19() }},
		{"fig3", "end-to-end Multi-Axl speedup", func() (interface{ Render() string }, error) { return Fig3() }},
	}
	for _, c := range cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out := res.Render(); !strings.Contains(out, c.needle) {
			t.Errorf("%s render missing %q:\n%s", c.name, c.needle, out)
		}
	}
}
