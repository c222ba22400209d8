package energy

import (
	"fmt"
	"sort"
	"strings"

	"dmx/internal/sim"
)

// Params holds the component power calibration.
type Params struct {
	// CPUActiveW is package power while cores restructure data (RAPL
	// reading under the AVX-heavy kernels); CPUIdleW is package idle.
	CPUActiveW float64
	CPUIdleW   float64
	// DRXActiveW and DRXIdleW bound one DRX ASIC instance.
	DRXActiveW float64
	DRXIdleW   float64
	// SwitchW is one PCIe switch's static power.
	SwitchW float64
	// LinkPJPerByte is the transfer energy per byte crossing one link.
	LinkPJPerByte float64
}

// Default returns the calibrated parameters: a 165 W TDP Xeon 8260L
// (~60 W idle), a ~6 W DRX ASIC in 15 nm (the 25 W PCIe slot budget
// bounds a standalone card with headroom), ~25 W per PCIe switch, and
// ~40 pJ/byte (≈5 pJ/bit) of link transfer energy.
func Default() Params {
	return Params{
		CPUActiveW:    165,
		CPUIdleW:      60,
		DRXActiveW:    6,
		DRXIdleW:      0.8,
		SwitchW:       25,
		LinkPJPerByte: 40,
	}
}

// Meter accumulates per-component energy in joules.
type Meter struct {
	p          Params
	components map[string]float64
}

// NewMeter creates an empty meter with the given parameters.
func NewMeter(p Params) *Meter {
	return &Meter{p: p, components: make(map[string]float64)}
}

// Add charges an arbitrary labeled energy (joules).
func (m *Meter) Add(component string, joules float64) {
	if joules < 0 {
		panic(fmt.Sprintf("energy: negative charge %v for %s", joules, component))
	}
	m.components[component] += joules
}

// AddCPU charges the host package: active power while restructuring,
// idle power for the rest of the makespan.
func (m *Meter) AddCPU(busy, makespan sim.Duration) {
	if busy > makespan {
		busy = makespan
	}
	m.Add("cpu", m.p.CPUActiveW*busy.Seconds()+m.p.CPUIdleW*(makespan-busy).Seconds())
}

// AccelKey is the breakdown component of the accelerator named name.
func AccelKey(name string) string { return "accel:" + name }

// AddAccelerator charges one accelerator's power over its busy time to
// component key, which AccelKey builds once per accelerator so that a
// meter per run does not build it again.
func (m *Meter) AddAccelerator(key string, powerW float64, busy sim.Duration) {
	m.Add(key, powerW*busy.Seconds())
}

// AddDRX charges n DRX instances, each busy for busyEach of the
// makespan and idle for the remainder.
func (m *Meter) AddDRX(n int, busyEach, makespan sim.Duration) {
	if busyEach > makespan {
		busyEach = makespan
	}
	per := m.p.DRXActiveW*busyEach.Seconds() + m.p.DRXIdleW*(makespan-busyEach).Seconds()
	m.Add("drx", float64(n)*per)
}

// AddSwitches charges static switch power over the makespan.
func (m *Meter) AddSwitches(n int, makespan sim.Duration) {
	m.Add("switch", float64(n)*m.p.SwitchW*makespan.Seconds())
}

// AddTraffic charges per-byte link transfer energy.
func (m *Meter) AddTraffic(bytes int64) {
	m.Add("link", float64(bytes)*m.p.LinkPJPerByte*1e-12)
}

// Total reports the accumulated energy in joules, summed in component
// name order so that equal meters give equal bits.
func (m *Meter) Total() float64 {
	var t float64
	for _, k := range m.names() {
		t += m.components[k]
	}
	return t
}

// names lists the charged components in sorted order.
func (m *Meter) names() []string {
	keys := make([]string, 0, len(m.components))
	for k := range m.components {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Breakdown returns a copy of the per-component energies.
func (m *Meter) Breakdown() map[string]float64 {
	out := make(map[string]float64, len(m.components))
	for k, v := range m.components {
		out[k] = v
	}
	return out
}

// String renders the breakdown sorted by component name.
func (m *Meter) String() string {
	var b strings.Builder
	for _, k := range m.names() {
		fmt.Fprintf(&b, "%s=%.3fJ ", k, m.components[k])
	}
	fmt.Fprintf(&b, "total=%.3fJ", m.Total())
	return b.String()
}
