package drxc

import (
	"testing"

	"dmx/internal/drx"
	"dmx/internal/restructure"
	"dmx/internal/tensor"
)

// BenchmarkRestructureLibrary executes the whole kernel library per
// iteration, with the machine's bulk operand fast paths on (the shipped
// configuration) and off (the reference element interpreter). The ratio
// between the two sub-benchmarks is the data-plane speedup; the
// differential tests in fastdiff_test.go prove the outputs identical.
func BenchmarkRestructureLibrary(b *testing.B) {
	cfg := drx.DefaultConfig()
	kernels := libraryKernels()
	compiled := make([]*Compiled, len(kernels))
	inputs := make([]map[string]*tensor.Tensor, len(kernels))
	for i, k := range kernels {
		c, err := CompileCached(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		compiled[i] = c
		inputs[i] = randKernelInputs(4000+int64(i), k)
	}
	for _, mode := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"interp", false}} {
		b.Run(mode.name, func(b *testing.B) {
			m, err := drx.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			m.SetFastPath(mode.fast)
			var bytesMoved int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, c := range compiled {
					_, res, err := Execute(c, m, inputs[j])
					if err != nil {
						b.Fatal(err)
					}
					bytesMoved = res.BytesLoaded + res.BytesStored
				}
			}
			_ = bytesMoved
		})
	}
}

// TestRestructureLibraryAllocs pins BenchmarkRestructureLibrary's
// steady-state allocations: one pass over the whole kernel library, on
// the fast paths and on the element interpreter.
func TestRestructureLibraryAllocs(t *testing.T) {
	cfg := drx.DefaultConfig()
	kernels := libraryKernels()
	compiled := make([]*Compiled, len(kernels))
	inputs := make([]map[string]*tensor.Tensor, len(kernels))
	for i, k := range kernels {
		c, err := CompileCached(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		compiled[i] = c
		inputs[i] = randKernelInputs(4000+int64(i), k)
	}
	const bound = 216
	for _, fast := range []bool{true, false} {
		m, err := drx.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFastPath(fast)
		got := testing.AllocsPerRun(5, func() {
			for j, c := range compiled {
				if _, _, err := Execute(c, m, inputs[j]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got > bound {
			t.Errorf("fast=%v: one library pass allocates %.0f objects, want <= %d", fast, got, bound)
		}
	}
}

// TestCompileUncachedAllocs pins an uncached compilation of
// BenchmarkCompile's kernel: the per-enqueue cost the program cache
// removes.
func TestCompileUncachedAllocs(t *testing.T) {
	cfg := drx.DefaultConfig()
	k := restructure.MelSpectrogram(12, 64, 16)
	got := testing.AllocsPerRun(20, func() {
		if _, err := Compile(k, cfg); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 75
	if got > bound {
		t.Errorf("uncached Compile allocates %.0f objects/op, want <= %d", got, bound)
	}
}

// BenchmarkCompile contrasts a cache hit with a full compilation — the
// per-enqueue cost the program cache removes from the dispatch path.
func BenchmarkCompile(b *testing.B) {
	cfg := drx.DefaultConfig()
	k := restructure.MelSpectrogram(12, 64, 16)
	if _, err := CompileCached(k, cfg); err != nil {
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := CompileCached(k, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compile(k, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
