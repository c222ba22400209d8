package drxc

import (
	"testing"

	"dmx/internal/drx"
	"dmx/internal/restructure"
)

func TestFusedKernelCanonical(t *testing.T) {
	// Separately constructed but structurally identical pairs must yield
	// the same *Kernel, so every plan shares one fingerprint memo and one
	// compile-cache entry.
	f1, err := FusedKernel(restructure.RecordFrame(8, 16), restructure.NERPrep(8, 16, 32))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FusedKernel(restructure.RecordFrame(8, 16), restructure.NERPrep(8, 16, 32))
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("FusedKernel returned distinct kernels for an identical pair")
	}
}

// fuseAndCompile fuses k1+k2 and compiles the canonical fused kernel
// through the program cache, as a plan that fuses two hops does.
func fuseAndCompile(k1, k2 *restructure.Kernel, cfg drx.Config) (*Compiled, error) {
	f, err := FusedKernel(k1, k2)
	if err != nil {
		return nil, err
	}
	return CompileCached(f, cfg)
}

func TestFusedKernelSharesCompileCache(t *testing.T) {
	cfg := drx.DefaultConfig()
	c1, err := fuseAndCompile(restructure.RecordFrame(4, 8), restructure.NERPrep(4, 8, 16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fuseAndCompile(restructure.RecordFrame(4, 8), restructure.NERPrep(4, 8, 16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("repeat compile of an identical fused pair returned a distinct compilation")
	}
}

func TestFusedKernelPaperScaleCompiles(t *testing.T) {
	// The stock fusible pair at the paper's 10 MB PIR batch geometry
	// (pir-ner's two hops) must actually compile — the tuner's fusion
	// axis depends on it.
	if testing.Short() {
		t.Skip("paper-scale compile")
	}
	_, err := fuseAndCompile(
		restructure.RecordFrame(40960, 256),
		restructure.NERPrep(40960, 256, 128),
		drx.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
}

func TestFusedKernelRejectsInfusible(t *testing.T) {
	// Mismatched geometry between the chained params must surface as an
	// error, not a cache entry.
	if _, err := fuseAndCompile(restructure.RecordFrame(4, 8), restructure.NERPrep(4, 16, 16),
		drx.DefaultConfig()); err == nil {
		t.Fatal("infusible pair compiled")
	}
}
