package drxc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dmx/internal/drx"
	"dmx/internal/restructure"
	"dmx/internal/sweep"
	"dmx/internal/tensor"
)

// The fast-path differential checker: every library kernel must produce
// byte-for-byte the same outputs and exactly the same Result accounting
// with the machine's bulk operand paths on and off, and Time — which
// moves no data — must return that same Result. This is the
// kernel-level complement of the machine-level FuzzFastPathMatchesInterpreter
// in internal/drx: it covers the address patterns real compiled programs
// emit (tiled spans, gather panels, transpose staging, barriers).

// libraryKernels is the full restructuring library at geometries that
// exercise tiling, the Transposition Engine, and remainder paths.
func libraryKernels() []*restructure.Kernel {
	return []*restructure.Kernel{
		restructure.MelSpectrogram(12, 64, 16),
		restructure.VideoPreprocess(256),
		restructure.SignalNormalize(6, 96),
		restructure.RecordFrame(16, 48),
		restructure.RecordFrame(100, 1000), // forces scratch tiling
		restructure.ColumnPack(128, 6, 7, 10),
		restructure.NERPrep(32, 64, 128),
		restructure.VecNormalize(8, 64),
		restructure.SumReduce(8, 300),
	}
}

// diffKernels is the library plus the collectives' all-reduce kernel at
// a gather fan-in of 4 over a 256 KB partial vector.
func diffKernels() []*restructure.Kernel {
	return append(libraryKernels(), restructure.SumReduce(4, 64<<10))
}

// DiffConfigs are the DRX configurations the differentials run at: the
// default, the rest of the Fig. 18 lane sweep, and a small scratchpad
// whose tiling yields more, shorter spans.
func DiffConfigs() map[string]drx.Config {
	def := drx.DefaultConfig()
	small := def.WithLanes(32)
	small.ScratchBytes = 8 << 10
	return map[string]drx.Config{
		"default":       def,
		"lanes32":       def.WithLanes(32),
		"lanes64":       def.WithLanes(64),
		"lanes256":      def.WithLanes(256),
		"scratch8k_l32": small,
	}
}

// randKernelInputs fills every In parameter of k with seeded random data
// of its declared dtype. Values are arbitrary: the differential compares
// DRX-vs-DRX, so semantic validity is irrelevant — only that both
// machines see identical bytes.
func randKernelInputs(seed int64, k *restructure.Kernel) map[string]*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	inputs := make(map[string]*tensor.Tensor)
	for _, p := range k.Inputs() {
		t := tensor.New(p.DType, p.Shape...)
		it := tensor.NewIter(p.Shape)
		for it.Next() {
			switch p.DType {
			case tensor.Complex64:
				t.SetComplex(complex(rng.Float64()*4-2, rng.Float64()*4-2), it.Index()...)
			case tensor.Uint8:
				t.Set(float64(rng.Intn(256)), it.Index()...)
			case tensor.Int8:
				t.Set(float64(rng.Intn(256)-128), it.Index()...)
			case tensor.Int16:
				t.Set(float64(rng.Intn(1<<16)-1<<15), it.Index()...)
			case tensor.Int32:
				t.Set(float64(rng.Intn(1<<20)-1<<19), it.Index()...)
			default:
				t.Set(rng.Float64()*200-100, it.Index()...)
			}
		}
		inputs[p.Name] = t
	}
	return inputs
}

// DiffFastVsInterp runs one kernel on two machines — fast paths on and
// off — and times it with Time, returning an error on any divergence.
// It is exported, like DiffConfigs, to the external workload
// differential.
func DiffFastVsInterp(k *restructure.Kernel, cfg drx.Config, inputs map[string]*tensor.Tensor) error {
	c, err := CompileCached(k, cfg)
	if err != nil {
		return fmt.Errorf("%s: compile: %w", k.Name, err)
	}
	timed, err := Time(c)
	if err != nil {
		return fmt.Errorf("%s: time: %w", k.Name, err)
	}
	outs := [2]map[string]*tensor.Tensor{}
	ress := [2]drx.Result{}
	for i := 0; i < 2; i++ {
		m, err := drx.New(cfg)
		if err != nil {
			return err
		}
		m.SetFastPath(i == 0)
		if outs[i], ress[i], err = Execute(c, m, inputs); err != nil {
			return fmt.Errorf("%s (fast=%v): %w", k.Name, i == 0, err)
		}
	}
	if ress[0] != ress[1] {
		return fmt.Errorf("%s: Result divergence:\nfast:   %+v\ninterp: %+v", k.Name, ress[0], ress[1])
	}
	if timed != ress[1] {
		return fmt.Errorf("%s: Result divergence:\ntime:   %+v\ninterp: %+v", k.Name, timed, ress[1])
	}
	for name, a := range outs[0] {
		b, ok := outs[1][name]
		if !ok {
			return fmt.Errorf("%s: interp run missing output %q", k.Name, name)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return fmt.Errorf("%s: output %q not byte-identical between fast path and interpreter", k.Name, name)
		}
	}
	return nil
}

func TestFastPathLibraryBitIdentical(t *testing.T) {
	kernels := diffKernels()
	cfg := drx.DefaultConfig()
	// One differential per kernel, in parallel on the sweep pool.
	err := sweep.Each(len(kernels), func(i int) error {
		return DiffFastVsInterp(kernels[i], cfg, randKernelInputs(1000+int64(i), kernels[i]))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFastPathLibraryBitIdenticalSmallScratch(t *testing.T) {
	// A small scratchpad changes the compiler's tiling — more, shorter
	// spans — and a small lane count changes transfer chunking. The
	// invariant must hold there too.
	cfg := DiffConfigs()["scratch8k_l32"]
	kernels := diffKernels()
	err := sweep.Each(len(kernels), func(i int) error {
		return DiffFastVsInterp(kernels[i], cfg, randKernelInputs(2000+int64(i), kernels[i]))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTimeMatchesExecuteAcrossLanes extends the differential to the
// remaining Fig. 18 lane counts, where transfer chunking and reduction
// trees change.
func TestTimeMatchesExecuteAcrossLanes(t *testing.T) {
	kernels := diffKernels()
	for _, name := range []string{"lanes32", "lanes64", "lanes256"} {
		cfg := DiffConfigs()[name]
		err := sweep.Each(len(kernels), func(i int) error {
			return DiffFastVsInterp(kernels[i], cfg, randKernelInputs(4000+int64(i), kernels[i]))
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestTimeChecksLayout keeps Execute's layout checks in Time: a kernel
// compiled for a DRAM its parameters do not fit in is refused by both.
func TestTimeChecksLayout(t *testing.T) {
	cfg := drx.DefaultConfig()
	c, err := Compile(restructure.RecordFrame(16, 48), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A copy built field by field: Compiled carries Time's memo, which
	// must not be copied.
	tiny := &Compiled{Prog: c.Prog, Layout: c.Layout, DRAMBytes: c.DRAMBytes, kernel: c.kernel, cfg: c.cfg}
	tiny.cfg.DRAMBytes = c.DRAMBytes - 1
	if _, err := Time(tiny); err == nil {
		t.Fatal("Time accepted a layout outside DRAM")
	}
	m, err := drx.New(tiny.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Execute(tiny, m, randKernelInputs(1, c.kernel)); err == nil {
		t.Fatal("Execute accepted a layout outside DRAM")
	}
}
