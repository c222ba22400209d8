package accel

import (
	"fmt"

	"dmx/internal/sim"
	"dmx/internal/tensor"
)

// Spec describes one accelerator: identity, performance model, and the
// functional kernel.
type Spec struct {
	// Name identifies the accelerator ("fft", "svm", ...).
	Name string
	// ThroughputBPS is the FPGA implementation's sustained input
	// consumption rate at 250 MHz.
	ThroughputBPS float64
	// Speedup is the accelerator's gain over the 16-core Xeon software
	// implementation of the same kernel (used by the All-CPU baseline).
	Speedup float64
	// PowerW is the post-synthesis FPGA power while the kernel runs.
	PowerW float64
	// LaunchOverhead covers kernel dispatch on the device.
	LaunchOverhead sim.Duration
	// Run executes the kernel functionally over named tensors.
	Run func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
}

// Latency models one batch on the FPGA accelerator.
func (s *Spec) Latency(batchBytes int64) sim.Duration {
	return s.LaunchOverhead + sim.BytesAt(batchBytes, s.ThroughputBPS)
}

// CPULatency models the same batch executed in software on the host —
// the All-CPU configuration of Fig. 3.
func (s *Spec) CPULatency(batchBytes int64) sim.Duration {
	return sim.Duration(float64(s.Latency(batchBytes)) * s.Speedup)
}

func (s *Spec) String() string {
	return fmt.Sprintf("%s (%.1f GB/s, %.1fx vs CPU, %.0f W)",
		s.Name, s.ThroughputBPS/1e9, s.Speedup, s.PowerW)
}

// missing reports a friendly error for an absent kernel input.
func missing(kernel, name string) error {
	return fmt.Errorf("accel: %s: missing input %q", kernel, name)
}

func getIn(kernel string, in map[string]*tensor.Tensor, name string) (*tensor.Tensor, error) {
	t, ok := in[name]
	if !ok {
		return nil, missing(kernel, name)
	}
	return t, nil
}
