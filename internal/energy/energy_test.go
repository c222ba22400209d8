package energy

import (
	"math"
	"strings"
	"testing"

	"dmx/internal/sim"
)

func TestCPUActiveVsIdleSplit(t *testing.T) {
	m := NewMeter(Default())
	m.AddCPU(sim.Second, 2*sim.Second)
	want := 165.0 + 60.0
	if got := m.Total(); math.Abs(got-want) > 1e-9 {
		t.Errorf("CPU energy = %v, want %v", got, want)
	}
}

func TestCPUBusyClampedToMakespan(t *testing.T) {
	m := NewMeter(Default())
	m.AddCPU(3*sim.Second, sim.Second)
	if got := m.Total(); math.Abs(got-165.0) > 1e-9 {
		t.Errorf("clamped CPU energy = %v, want 165", got)
	}
}

func TestDRXScalesWithInstances(t *testing.T) {
	p := Default()
	one := NewMeter(p)
	one.AddDRX(1, sim.Second, sim.Second)
	four := NewMeter(p)
	four.AddDRX(4, sim.Second, sim.Second)
	if math.Abs(four.Total()-4*one.Total()) > 1e-9 {
		t.Errorf("4 DRX = %v, want 4x %v", four.Total(), one.Total())
	}
}

func TestTrafficEnergyPerByte(t *testing.T) {
	m := NewMeter(Default())
	m.AddTraffic(1e12) // 1 TB at 40 pJ/B = 40 J
	if got := m.Total(); math.Abs(got-40) > 1e-9 {
		t.Errorf("1TB transfer energy = %v J, want 40", got)
	}
}

func TestBreakdownAndString(t *testing.T) {
	m := NewMeter(Default())
	m.AddCPU(sim.Second, sim.Second)
	m.AddAccelerator(AccelKey("fft"), 18, sim.Second)
	m.AddSwitches(2, sim.Second)
	m.AddDRX(1, 0, sim.Second)
	m.AddTraffic(1 << 30)
	bd := m.Breakdown()
	for _, k := range []string{"cpu", "accel:fft", "switch", "drx", "link"} {
		if bd[k] <= 0 {
			t.Errorf("component %s missing from breakdown", k)
		}
	}
	s := m.String()
	if !strings.Contains(s, "total=") || !strings.Contains(s, "cpu=") {
		t.Errorf("String() = %q", s)
	}
	// Mutating the returned breakdown must not affect the meter.
	bd["cpu"] = 0
	if m.Breakdown()["cpu"] == 0 {
		t.Error("Breakdown returned internal map")
	}
}

func TestIdleDRXCheaperThanActive(t *testing.T) {
	p := Default()
	active := NewMeter(p)
	active.AddDRX(1, sim.Second, sim.Second)
	idle := NewMeter(p)
	idle.AddDRX(1, 0, sim.Second)
	if idle.Total() >= active.Total() {
		t.Errorf("idle DRX (%v J) not cheaper than active (%v J)", idle.Total(), active.Total())
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative energy")
		}
	}()
	NewMeter(Default()).Add("x", -1)
}

// Floating-point addition is not associative: 1e16+1 rounds back to
// 1e16, so these three charges total 1e16 in name order and 1e16+2 when
// the two ones come first. Total must pick name order every time.
func TestTotalSumsInNameOrder(t *testing.T) {
	m := NewMeter(Default())
	m.Add("a", 1e16)
	m.Add("b", 1)
	m.Add("c", 1)
	for i := 0; i < 100; i++ {
		if got := m.Total(); got != 1e16 {
			t.Fatalf("Total = %.0f, want 1e16 (a+b+c in name order)", got)
		}
	}
}
