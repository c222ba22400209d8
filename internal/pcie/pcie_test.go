package pcie

import (
	"math"
	"testing"

	"dmx/internal/sim"
)

func buildFabric(t *testing.T, eng *sim.Engine) *Fabric {
	t.Helper()
	f := New(eng)
	if err := f.AddSwitch("sw0", LinkConfig{Gen3, 8}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSwitch("sw1", LinkConfig{Gen3, 8}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct{ name, sw string }{
		{"a0", "sw0"}, {"a1", "sw0"}, {"b0", "sw1"}, {"b1", "sw1"},
	} {
		if err := f.AddDevice(d.name, d.sw, LinkConfig{Gen3, 16}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestGenBandwidthOrdering(t *testing.T) {
	g3 := Gen3.BytesPerSecPerLane()
	g4 := Gen4.BytesPerSecPerLane()
	g5 := Gen5.BytesPerSecPerLane()
	if !(g3 < g4 && g4 < g5) {
		t.Fatalf("generation bandwidths not increasing: %v %v %v", g3, g4, g5)
	}
	if r := g4 / g3; math.Abs(r-2.0) > 0.01 {
		t.Errorf("Gen4/Gen3 = %.3f, want ~2x", r)
	}
	// Gen3 x16 effective ≈ 12.6 GB/s with protocol overhead.
	bw := LinkConfig{Gen3, 16}.Bandwidth()
	if bw < 10e9 || bw > 16e9 {
		t.Errorf("Gen3 x16 = %.1f GB/s outside plausible range", bw/1e9)
	}
}

func TestSameSwitchTransferLatency(t *testing.T) {
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	var doneAt sim.Time
	n := int64(1 << 20) // 1 MiB
	if err := f.Transfer("a0", "a1", n, func() { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	bw := LinkConfig{Gen3, 16}.Bandwidth()
	want := float64(n)/bw + SwitchPortLatency.Seconds()
	if got := sim.Duration(doneAt).Seconds(); math.Abs(got-want) > 1e-9+want*0.01 {
		t.Errorf("same-switch 1MiB took %.3fus, want %.3fus", got*1e6, want*1e6)
	}
}

func TestCrossSwitchSlowerThanSameSwitch(t *testing.T) {
	n := int64(8 << 20)
	run := func(from, to string) sim.Time {
		eng := sim.NewEngine()
		f := buildFabric(t, eng)
		var doneAt sim.Time
		if err := f.Transfer(from, to, n, func() { doneAt = eng.Now() }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return doneAt
	}
	same := run("a0", "a1")
	cross := run("a0", "b0")
	if cross <= same {
		t.Errorf("cross-switch (%v) not slower than same-switch (%v)", cross, same)
	}
	// The x8 uplink halves the bottleneck bandwidth: expect ~2x.
	if r := float64(cross) / float64(same); r < 1.8 || r > 2.3 {
		t.Errorf("cross/same ratio %.2f, want ~2 (x8 uplink bottleneck)", r)
	}
}

func TestUpstreamContention(t *testing.T) {
	// Two devices streaming to the CPU share the x8 uplink: each sees
	// half the bandwidth.
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	n := int64(4 << 20)
	var done []sim.Time
	for _, d := range []string{"a0", "a1"} {
		if err := f.Transfer(d, Root, n, func() { done = append(done, eng.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	upBW := LinkConfig{Gen3, 8}.Bandwidth()
	want := float64(2*n)/upBW + (SwitchPortLatency + RootComplexLatency).Seconds()
	for _, d := range done {
		if got := sim.Duration(d).Seconds(); math.Abs(got-want) > want*0.02 {
			t.Errorf("contended upstream transfer took %.1fus, want %.1fus", got*1e6, want*1e6)
		}
	}
}

func TestPeerToPeerAvoidsUplink(t *testing.T) {
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	if err := f.Transfer("a0", "a1", 1<<20, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for _, s := range f.Stats() {
		if s.Name == "sw0.up" || s.Name == "sw0.down" {
			if s.Bytes != 0 {
				t.Errorf("P2P transfer leaked %d bytes onto uplink %s", s.Bytes, s.Name)
			}
		}
	}
}

func TestRootTransfersUseUplink(t *testing.T) {
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	if err := f.Transfer(Root, "a0", 1<<20, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var found bool
	for _, s := range f.Stats() {
		if s.Name == "sw0.down" && s.Bytes == 1<<20 {
			found = true
		}
	}
	if !found {
		t.Error("root→device transfer did not traverse the switch downlink")
	}
}

func TestGenSweepScalesTransferTime(t *testing.T) {
	n := int64(64 << 20)
	times := map[Gen]float64{}
	for _, g := range []Gen{Gen3, Gen4, Gen5} {
		eng := sim.NewEngine()
		f := New(eng)
		if err := f.AddSwitch("sw", LinkConfig{g, 8}); err != nil {
			t.Fatal(err)
		}
		if err := f.AddDevice("a", "sw", LinkConfig{g, 16}); err != nil {
			t.Fatal(err)
		}
		if err := f.AddDevice("b", "sw", LinkConfig{g, 16}); err != nil {
			t.Fatal(err)
		}
		var doneAt sim.Time
		if err := f.Transfer("a", "b", n, func() { doneAt = eng.Now() }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		times[g] = sim.Duration(doneAt).Seconds()
	}
	if !(times[Gen5] < times[Gen4] && times[Gen4] < times[Gen3]) {
		t.Errorf("transfer times not ordered by generation: %v", times)
	}
	if r := times[Gen3] / times[Gen4]; math.Abs(r-2) > 0.1 {
		t.Errorf("Gen3/Gen4 time ratio %.2f, want ~2", r)
	}
}

func TestFabricErrors(t *testing.T) {
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	if err := f.Transfer("a0", "a0", 1, nil); err == nil {
		t.Error("self-transfer accepted")
	}
	if err := f.Transfer("ghost", "a0", 1, nil); err == nil {
		t.Error("unknown source accepted")
	}
	if err := f.Transfer("a0", "ghost", 1, nil); err == nil {
		t.Error("unknown destination accepted")
	}
	if err := f.AddDevice("a0", "sw0", LinkConfig{Gen3, 16}); err == nil {
		t.Error("duplicate device accepted")
	}
	if err := f.AddDevice("x", "nosw", LinkConfig{Gen3, 16}); err == nil {
		t.Error("unknown switch accepted")
	}
	if err := f.AddSwitch("sw0", LinkConfig{Gen3, 8}); err == nil {
		t.Error("duplicate switch accepted")
	}
	if err := f.AddSwitch(Root, LinkConfig{Gen3, 8}); err == nil {
		t.Error("root name accepted as switch")
	}
}

func TestTotalBytesAccounting(t *testing.T) {
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	n := int64(1 << 20)
	if err := f.Transfer("a0", "b0", n, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Cross-switch path touches 4 links.
	if got := f.TotalBytes(); got != 4*n {
		t.Errorf("TotalBytes = %d, want %d", got, 4*n)
	}
	if len(f.devices) != 4 {
		t.Errorf("%d devices, want 4", len(f.devices))
	}
	if sw, ok := f.SwitchOf("b1"); !ok || sw != "sw1" {
		t.Errorf("SwitchOf(b1) = %q, %v", sw, ok)
	}
}
