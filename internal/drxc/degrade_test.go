package drxc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dmx/internal/drx"
	"dmx/internal/drxc"
	"dmx/internal/restructure"
	"dmx/internal/sweep"
	"dmx/internal/tensor"
)

// degradeHopInputs builds domain-valid inputs for a hop kernel: byte
// fields that workload kernels parse as ASCII digits (column-pack's
// key/amount decode) get digit bytes, keeping the decoded integers
// inside float32's exact range — the regime the workloads actually run
// in and the one drxc's own differential tests pin at tolerance zero.
func degradeHopInputs(seed int64, k *restructure.Kernel) map[string]*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	inputs := randHopInputs(seed, k)
	for _, p := range k.Inputs() {
		if p.DType != tensor.Uint8 {
			continue
		}
		in := inputs[p.Name]
		it := tensor.NewIter(p.Shape)
		for it.Next() {
			in.Set(float64('0'+rng.Intn(10)), it.Index()...)
		}
	}
	return inputs
}

// Graceful degradation's functional contract: when a hop falls back to
// CPU-mediated restructuring (dmxsys degradeHop), the software path is
// restructure.Run — so for every workload hop kernel, the CPU reference
// interpreter must reproduce the DRX execution it replaces on
// domain-valid inputs. Pure data-motion outputs (layout, dtype, format
// conversion) are byte-identical; outputs that involve float
// arithmetic agree within the compiler's established differential
// tolerance (the DRX evaluates in float32 lanes while the reference
// interpreter carries float64, so low-bit rounding can differ — the
// same contract drxc's own differential tests assert). A degraded
// request differs from a clean one in timing and energy only, never in
// meaning.
func TestCPUFallbackBitIdenticalToDRX(t *testing.T) {
	hops := allWorkloadHops(t)
	cfg := drx.DefaultConfig()
	err := sweep.Each(len(hops), func(i int) error {
		h := hops[i]
		c, err := drxc.CompileCached(h.kernel, cfg)
		if err != nil {
			return fmt.Errorf("%s hop %d (%s): compile: %w", h.bench, h.hop, h.kernel.Name, err)
		}
		inputs := degradeHopInputs(9000+int64(i), h.kernel)
		m, err := drx.New(cfg)
		if err != nil {
			return err
		}
		drxOut, _, err := drxc.Execute(c, m, inputs)
		if err != nil {
			return fmt.Errorf("%s hop %d (%s): DRX: %w", h.bench, h.hop, h.kernel.Name, err)
		}
		cpuOut, err := restructure.Run(h.kernel, inputs)
		if err != nil {
			return fmt.Errorf("%s hop %d (%s): CPU fallback: %w", h.bench, h.hop, h.kernel.Name, err)
		}
		if len(cpuOut) != len(drxOut) {
			return fmt.Errorf("%s hop %d (%s): CPU fallback produced %d outputs, DRX %d",
				h.bench, h.hop, h.kernel.Name, len(cpuOut), len(drxOut))
		}
		for name, want := range drxOut {
			got, ok := cpuOut[name]
			if !ok {
				return fmt.Errorf("%s hop %d (%s): CPU fallback missing output %q",
					h.bench, h.hop, h.kernel.Name, name)
			}
			if bytes.Equal(got.Bytes(), want.Bytes()) {
				continue
			}
			// Float-compute outputs may differ in low bits; hold them
			// to the same tolerance the compiler's differential tests
			// use for arithmetic kernels.
			if !tensor.AllClose(want, got, 1e-3) {
				return fmt.Errorf("%s hop %d (%s): output %q differs between CPU fallback and DRX beyond tolerance",
					h.bench, h.hop, h.kernel.Name, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
