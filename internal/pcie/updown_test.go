package pcie

import (
	"math"
	"testing"

	"dmx/internal/sim"
)

// transferUp and transferDown move n bytes from a device into its
// switch and from the switch to the device.
func transferUp(f *Fabric, dev string, n int64, done func()) error {
	rt, err := f.UpRoute(dev)
	if err != nil {
		return err
	}
	return f.TransferRoute(rt, n, done)
}

func transferDown(f *Fabric, dev string, n int64, done func()) error {
	rt, err := f.DownRoute(dev)
	if err != nil {
		return err
	}
	return f.TransferRoute(rt, n, done)
}

func TestTransferUpTerminatesAtSwitch(t *testing.T) {
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	n := int64(1 << 20)
	var doneAt sim.Time
	if err := transferUp(f, "a0", n, func() { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Only the device's own up-link plus one port crossing.
	bw := LinkConfig{Gen3, 16}.Bandwidth()
	want := float64(n)/bw + SwitchPortLatency.Seconds()
	if got := sim.Duration(doneAt).Seconds(); math.Abs(got-want) > want*0.01 {
		t.Errorf("up transfer took %.3fus, want %.3fus", got*1e6, want*1e6)
	}
	// The switch uplink must remain untouched.
	for _, s := range f.Stats() {
		if s.Name == "sw0.up" && s.Bytes != 0 {
			t.Errorf("uplink carried %d bytes for a switch-terminated transfer", s.Bytes)
		}
	}
}

func TestTransferDownFromSwitch(t *testing.T) {
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	done := false
	if err := transferDown(f, "b1", 1<<20, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Fatal("down transfer never completed")
	}
	var carried int64
	for _, s := range f.Stats() {
		if s.Name == "b1.down" {
			carried = s.Bytes
		}
	}
	if carried != 1<<20 {
		t.Errorf("device downlink carried %d bytes", carried)
	}
}

func TestUpAndFullTransferShareDeviceLink(t *testing.T) {
	// A switch-terminated flow and a P2P flow from the same device share
	// its up-link fairly.
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	n := int64(4 << 20)
	var upDone, p2pDone sim.Time
	if err := transferUp(f, "a0", n, func() { upDone = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := f.Transfer("a0", "a1", n, func() { p2pDone = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	bw := LinkConfig{Gen3, 16}.Bandwidth()
	want := 2 * float64(n) / bw // both share the a0.up link
	for name, got := range map[string]sim.Time{"up": upDone, "p2p": p2pDone} {
		if math.Abs(sim.Duration(got).Seconds()-want) > want*0.05 {
			t.Errorf("%s finished at %.1fus, want ~%.1fus (fair share)", name, sim.Duration(got).Seconds()*1e6, want*1e6)
		}
	}
}
