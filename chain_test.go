package dmx_test

import (
	"strings"
	"testing"

	"dmx"
	"dmx/internal/accel"
	"dmx/internal/restructure"
	"dmx/internal/tensor"
)

func soundParts(t *testing.T) (*dmx.AccelSpec, *dmx.AccelSpec, *dmx.RestructureKernel) {
	t.Helper()
	fft, err := accel.NewFFT(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	svm := accel.NewSVM(64, 8, 4, 1)
	mel := restructure.MelSpectrogram(64, 64, 8)
	return fft, svm, mel
}

func TestNewChainBuildsValidPipeline(t *testing.T) {
	fft, svm, mel := soundParts(t)
	pipe, err := dmx.NewChain("sound").
		Kernel(fft, 64*128*4).
		Motion(mel, 64*64*8, 64*8*4).
		Kernel(svm, 64*8*4).
		IO(64*128*4, 64*4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.Stages) != 2 || len(pipe.Hops) != 1 {
		t.Fatalf("built %d stages / %d hops", len(pipe.Stages), len(pipe.Hops))
	}
	rep, err := dmx.Simulate(dmx.DefaultConfig(dmx.BumpInTheWire), pipe)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Apps[0].Total <= 0 {
		t.Error("built pipeline did not simulate")
	}
}

func TestNewChainOrderingErrors(t *testing.T) {
	fft, svm, mel := soundParts(t)
	if _, err := dmx.NewChain("k-k").Kernel(fft, 1).Kernel(svm, 1).IO(1, 1).Build(); err == nil ||
		!strings.Contains(err.Error(), "Motion between") {
		t.Errorf("Kernel-Kernel accepted: %v", err)
	}
	if _, err := dmx.NewChain("m-first").Motion(mel, 1, 1).IO(1, 1).Build(); err == nil ||
		!strings.Contains(err.Error(), "preceding Kernel") {
		t.Errorf("leading Motion accepted: %v", err)
	}
	if _, err := dmx.NewChain("trailing-m").Kernel(fft, 1).Motion(mel, 1, 1).IO(1, 1).Build(); err == nil ||
		!strings.Contains(err.Error(), "consuming Kernel") {
		t.Errorf("trailing Motion accepted: %v", err)
	}
	// Missing IO fails pipeline validation.
	if _, err := dmx.NewChain("no-io").
		Kernel(fft, 64*128*4).Motion(mel, 64*64*8, 64*8*4).Kernel(svm, 64*8*4).Build(); err == nil {
		t.Error("missing IO accepted")
	}
	// The first error sticks through subsequent calls.
	if _, err := dmx.NewChain("sticky").Motion(mel, 1, 1).Kernel(fft, 1).Build(); err == nil ||
		!strings.Contains(err.Error(), "preceding Kernel") {
		t.Errorf("error did not stick: %v", err)
	}
}

func TestBuilderCopyIsIndependent(t *testing.T) {
	fft, svm, mel := soundParts(t)
	b := dmx.NewChain("copy").
		Kernel(fft, 64*128*4).
		Motion(mel, 64*64*8, 64*8*4).
		Kernel(svm, 64*8*4).
		IO(64*128*4, 64*4)
	p1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("Build returned the same pipeline twice")
	}
	p1.Name = "mutated"
	if p2.Name != "copy" {
		t.Error("pipelines share state")
	}
}

// userKernel is an ad-hoc f32[512,512]→f32[512,512] restructuring kernel
// named "user-kernel": the name and geometry, and so the Signature, are
// the same whatever stage it runs.
func userKernel(stage restructure.Stage) *dmx.RestructureKernel {
	return &dmx.RestructureKernel{
		Name: "user-kernel",
		Params: []restructure.Param{
			{Name: "in", DType: tensor.Float32, Shape: []int{512, 512}, Dir: restructure.In},
			{Name: "out", DType: tensor.Float32, Shape: []int{512, 512}, Dir: restructure.Out},
		},
		Stages: []restructure.Stage{stage},
	}
}

// TestSameSignatureKernelsTimedApart chains two user kernels that share
// a name and geometry but not their stages — a copy Map and a Transpose
// — and simulates them in either order: each must report its own DRX
// restructure time, not the first one's.
func TestSameSignatureKernelsTimedApart(t *testing.T) {
	fft, svm, _ := soundParts(t)
	const bytes = 512 * 512 * 4
	kernels := map[string]func() *dmx.RestructureKernel{
		"copy": func() *dmx.RestructureKernel {
			return userKernel(&restructure.MapStage{
				Out: "out", Ins: []string{"in"},
				Accs: []restructure.Access{restructure.IdentityAccess(2)},
				Expr: restructure.InN(0),
			})
		},
		"transpose": func() *dmx.RestructureKernel {
			return userKernel(&restructure.TransposeStage{Out: "out", In: "in", Perm: []int{1, 0}})
		},
	}
	restructureTime := func(name string) dmx.Duration {
		pipe, err := dmx.NewChain(name).
			Kernel(fft, 64*128*4).
			Motion(kernels[name](), bytes, bytes).
			Kernel(svm, bytes).
			IO(64*128*4, 64*4).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := dmx.Simulate(dmx.DefaultConfig(dmx.BumpInTheWire), pipe)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Apps[0].RestructureTime
	}
	copyFirst := restructureTime("copy")
	transposeSecond := restructureTime("transpose")
	transposeFirst := restructureTime("transpose")
	copySecond := restructureTime("copy")
	if copyFirst != copySecond || transposeFirst != transposeSecond {
		t.Fatalf("restructure time depends on order: copy %v then %v, transpose %v then %v",
			copyFirst, copySecond, transposeSecond, transposeFirst)
	}
	if copyFirst == transposeFirst {
		t.Fatalf("copy and transpose both restructure in %v: one kernel's DRX time served the other", copyFirst)
	}
}
