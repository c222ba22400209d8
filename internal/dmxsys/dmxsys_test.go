package dmxsys

import (
	"math"
	"strings"
	"testing"

	"dmx/internal/accel"
	"dmx/internal/restructure"
	"dmx/internal/sim"
)

// testPipeline builds a small but nontrivial two-kernel pipeline: a
// synthetic "decrypt → frame records → scan" chain sized so one DRX
// timing run stays fast.
func testPipeline(name string) *Pipeline {
	const nrec, reclen = 4096, 256 // 1 MiB batch: big enough to be wire/DRAM-bound
	batch := int64(nrec * reclen)
	aes, err := accel.NewAESGCM("sys-test")
	if err != nil {
		panic(err)
	}
	re := accel.NewRegexRedact(nrec, reclen)
	return &Pipeline{
		Name:   name,
		Stages: []Stage{{Accel: aes, InBytes: batch + 16}, {Accel: re, InBytes: batch}},
		Hops: []Hop{{
			Kernel:   restructure.RecordFrame(nrec, reclen),
			InBytes:  batch,
			OutBytes: batch,
		}},
		InputBytes:  batch + 16,
		OutputBytes: 4096, // per-record match summary back to the host
	}
}

func pipelines(n int) []*Pipeline {
	out := make([]*Pipeline, n)
	for i := range out {
		out[i] = testPipeline("app")
	}
	return out
}

func run(t *testing.T, p Placement, napps int) RunReport {
	t.Helper()
	s, err := New(DefaultConfig(p), pipelines(napps))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestAllPlacementsCompleteAndAttributeTime(t *testing.T) {
	for _, p := range []Placement{AllCPU, MultiAxl, Integrated, Standalone, PCIeIntegrated, BumpInTheWire} {
		rep := run(t, p, 2)
		if len(rep.Apps) != 2 {
			t.Fatalf("%v: %d app reports", p, len(rep.Apps))
		}
		for _, a := range rep.Apps {
			if a.Total <= 0 {
				t.Errorf("%v: zero total", p)
			}
			if a.KernelTime <= 0 || a.RestructureTime <= 0 {
				t.Errorf("%v: missing kernel/restructure attribution: %+v", p, a)
			}
			sum := a.KernelTime + a.RestructureTime + a.MovementTime
			// Components must cover nearly all of the timeline (driver
			// delays are inside movement; queueing is inside the phases).
			if float64(sum) < 0.95*float64(a.Total) || sum > a.Total {
				t.Errorf("%v: components %v do not cover total %v", p, sum, a.Total)
			}
			if p == AllCPU && a.MovementTime != 0 {
				t.Errorf("AllCPU reported movement time %v", a.MovementTime)
			}
			if p != AllCPU && a.MovementTime <= 0 {
				t.Errorf("%v: no movement time", p)
			}
		}
		if rep.EnergyJ <= 0 {
			t.Errorf("%v: no energy accounted", p)
		}
	}
}

func TestMultiAxlFasterThanAllCPU(t *testing.T) {
	allcpu := run(t, AllCPU, 1)
	axl := run(t, MultiAxl, 1)
	if axl.MeanTotal() >= allcpu.MeanTotal() {
		t.Errorf("Multi-Axl (%v) not faster than All-CPU (%v)", axl.MeanTotal(), allcpu.MeanTotal())
	}
}

func TestDMXFasterThanMultiAxl(t *testing.T) {
	axl := run(t, MultiAxl, 4)
	dmx := run(t, BumpInTheWire, 4)
	if dmx.MeanTotal() >= axl.MeanTotal() {
		t.Errorf("Bump-in-the-Wire (%v) not faster than Multi-Axl (%v)", dmx.MeanTotal(), axl.MeanTotal())
	}
	// And absolute restructuring time must collapse (Fig. 12's story).
	var reAxl, reDMX sim.Duration
	for i := range axl.Apps {
		reAxl += axl.Apps[i].RestructureTime
		reDMX += dmx.Apps[i].RestructureTime
	}
	if reDMX >= reAxl {
		t.Errorf("restructure time did not shrink: baseline %v, DMX %v", reAxl, reDMX)
	}
}

func TestPlacementOrderingAtScale(t *testing.T) {
	// Fig. 14: Integrated ≤ Standalone ≤ Bump-in-the-Wire ≤ PCIe-Integrated
	// (in speedup, i.e. reversed in latency), with many concurrent apps.
	const napps = 8
	integrated := run(t, Integrated, napps).MeanTotal()
	standalone := run(t, Standalone, napps).MeanTotal()
	bump := run(t, BumpInTheWire, napps).MeanTotal()
	pcieInt := run(t, PCIeIntegrated, napps).MeanTotal()
	if !(pcieInt <= bump && bump <= standalone && standalone <= integrated) {
		t.Errorf("placement latency ordering violated: integ=%v standalone=%v bump=%v pcie=%v",
			integrated, standalone, bump, pcieInt)
	}
}

func TestContentionGrowsMultiAxlLatency(t *testing.T) {
	one := run(t, MultiAxl, 1).MeanTotal()
	eight := run(t, MultiAxl, 8).MeanTotal()
	if eight <= one {
		t.Errorf("8-app Multi-Axl latency (%v) not above 1-app (%v)", eight, one)
	}
}

func TestBumpInTheWireScalesBetterThanIntegrated(t *testing.T) {
	// Integrated's single DRX serializes all apps; bump-in-the-wire gives
	// each chain its own. The gap must widen with concurrency.
	gap := func(n int) float64 {
		return float64(run(t, Integrated, n).MeanTotal()) / float64(run(t, BumpInTheWire, n).MeanTotal())
	}
	if g1, g8 := gap(1), gap(8); g8 <= g1 {
		t.Errorf("Integrated/BumpWire gap did not grow: 1 app %.2f, 8 apps %.2f", g1, g8)
	}
}

func TestEnergyBumpWireHasMoreDRXThanStandalone(t *testing.T) {
	bump, err := New(DefaultConfig(BumpInTheWire), pipelines(4))
	if err != nil {
		t.Fatal(err)
	}
	std, err := New(DefaultConfig(Standalone), pipelines(4))
	if err != nil {
		t.Fatal(err)
	}
	if bump.nDRX <= std.nDRX {
		t.Errorf("bump-in-the-wire DRX count %d not above standalone %d (per-accelerator vs per-app)",
			bump.nDRX, std.nDRX)
	}
}

func TestDRXMuchFasterThanCPURestructure(t *testing.T) {
	// The core claim: restructuring on DRX beats the host by a wide
	// margin for a solo app.
	axl := run(t, MultiAxl, 1)
	bump := run(t, BumpInTheWire, 1)
	rAxl := axl.Apps[0].RestructureTime
	rBump := bump.Apps[0].RestructureTime
	if float64(rAxl) < 2*float64(rBump) {
		t.Errorf("DRX restructure (%v) not ≥2x faster than CPU (%v)", rBump, rAxl)
	}
}

func TestThroughputMetric(t *testing.T) {
	rep := run(t, BumpInTheWire, 1)
	a := rep.Apps[0]
	thr := a.Throughput()
	if thr <= 0 {
		t.Fatal("non-positive throughput")
	}
	// Stage-max bound: throughput cannot exceed 1/max-stage and cannot
	// be below 1/total.
	if thr < 1/a.Total.Seconds() {
		t.Errorf("throughput %v below 1/total %v", thr, 1/a.Total.Seconds())
	}
}

func TestRunDeterminism(t *testing.T) {
	a := run(t, BumpInTheWire, 4)
	b := run(t, BumpInTheWire, 4)
	if a.Makespan != b.Makespan || a.MeanTotal() != b.MeanTotal() {
		t.Errorf("nondeterministic run: %v/%v vs %v/%v", a.Makespan, a.MeanTotal(), b.Makespan, b.MeanTotal())
	}
	if a.EnergyJ != b.EnergyJ {
		t.Errorf("nondeterministic energy: %v vs %v", a.EnergyJ, b.EnergyJ)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(MultiAxl)
	bad.UplinkLanes = 0
	if _, err := New(bad, pipelines(1)); err == nil {
		t.Error("accepted a zero-width uplink")
	}
	cfg := DefaultConfig(MultiAxl)
	if _, err := New(cfg, nil); err == nil {
		t.Error("accepted empty pipeline list")
	}
	p := testPipeline("broken")
	p.Hops[0].Kernel = nil
	if _, err := New(cfg, []*Pipeline{p}); err == nil {
		t.Error("accepted pipeline with nil hop kernel")
	}
}

func TestSwitchAllocationGrowsWithApps(t *testing.T) {
	small, _ := New(DefaultConfig(BumpInTheWire), pipelines(2))
	big, _ := New(DefaultConfig(BumpInTheWire), pipelines(12))
	if big.nSwitches <= small.nSwitches {
		t.Errorf("12 apps on %d switches, 2 apps on %d", big.nSwitches, small.nSwitches)
	}
}

func TestCollectiveBroadcastDMXFaster(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		mk := func(useDMX bool) sim.Duration {
			cs, err := NewCollective(CollectiveConfig{
				Accels: n,
				Bytes:  4 << 20,
				UseDMX: useDMX,
				Sys:    DefaultConfig(BumpInTheWire),
			})
			if err != nil {
				t.Fatal(err)
			}
			d, err := cs.Broadcast()
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		base, dmx := mk(false), mk(true)
		if dmx >= base {
			t.Errorf("broadcast n=%d: DMX (%v) not faster than baseline (%v)", n, dmx, base)
		}
	}
}

func TestCollectiveAllReduceDMXFaster(t *testing.T) {
	for _, n := range []int{4, 16} {
		mk := func(useDMX bool) sim.Duration {
			cs, err := NewCollective(CollectiveConfig{
				Accels: n,
				Bytes:  4 << 20,
				Reduce: true,
				UseDMX: useDMX,
				Sys:    DefaultConfig(BumpInTheWire),
			})
			if err != nil {
				t.Fatal(err)
			}
			d, err := cs.AllReduce()
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		base, dmx := mk(false), mk(true)
		if dmx >= base {
			t.Errorf("all-reduce n=%d: DMX (%v) not faster than baseline (%v)", n, dmx, base)
		}
	}
}

func TestCollectiveErrors(t *testing.T) {
	if _, err := NewCollective(CollectiveConfig{Accels: 1, Bytes: 1, Sys: DefaultConfig(MultiAxl)}); err == nil {
		t.Error("accepted 1-accelerator collective")
	}
	if _, err := NewCollective(CollectiveConfig{Accels: 4, Bytes: 0, Sys: DefaultConfig(MultiAxl)}); err == nil {
		t.Error("accepted zero-byte collective")
	}
}

func TestEnergyBreakdownComponents(t *testing.T) {
	rep := run(t, BumpInTheWire, 2)
	for _, key := range []string{"cpu", "drx", "switch", "link"} {
		if rep.EnergyBreakdown[key] <= 0 {
			t.Errorf("energy component %q missing or zero: %v", key, rep.EnergyBreakdown)
		}
	}
	var accelSeen bool
	for k := range rep.EnergyBreakdown {
		if strings.HasPrefix(k, "accel:") {
			accelSeen = true
		}
	}
	if !accelSeen {
		t.Error("no accelerator energy components")
	}
	if s := rep.String(); !strings.Contains(s, "Bump-in-the-Wire") || !strings.Contains(s, "shares:") {
		t.Errorf("RunReport.String incomplete: %q", s)
	}
}

// The energy total sums a per-component map; summed in map order its
// last bits moved between identical runs.
func TestEnergyBitIdenticalAcrossRuns(t *testing.T) {
	var first uint64
	for i := 0; i < 300; i++ {
		bits := math.Float64bits(run(t, Standalone, 3).EnergyJ)
		if i == 0 {
			first = bits
		} else if bits != first {
			t.Fatalf("run %d: EnergyJ bits %#x, run 0 %#x", i, bits, first)
		}
	}
}
