package dmxrt

import (
	"testing"

	"dmx/internal/drx"
	"dmx/internal/drxc"
	"dmx/internal/restructure"
	"dmx/internal/tensor"
)

// benchFixture is a DRX queue dispatching one restructuring hop over and
// over — the serving layer's steady state. Pipelines build each hop's
// *Kernel once and enqueue it per request, so the fixture reuses one
// kernel object the same way. The kernel is the canonical restructuring
// hop — a 192 KB float32 transpose on the Transposition Engine path:
// pure data motion, i.e. the workload the DRX data plane exists for.
type benchFixture struct {
	ctx     *Context
	q       *CommandQueue
	kernel  *restructure.Kernel
	inputs  map[string]*Buffer
	outputs map[string]*Buffer
	machine *drx.Machine
	rawIn   map[string]*tensor.Tensor
}

func newBenchFixture(tb testing.TB) *benchFixture {
	tb.Helper()
	rows, cols := 192, 256
	p := NewPlatform()
	dev, err := p.AddDRX(drx.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	ctx := p.NewContext()
	x := tensor.New(tensor.Float32, rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x.Set(float64((i*131+j*17)%997)/8, i, j)
		}
	}
	k := &restructure.Kernel{
		Name: "hop-transpose",
		Params: []restructure.Param{
			{Name: "x", DType: tensor.Float32, Shape: []int{rows, cols}, Dir: restructure.In},
			{Name: "y", DType: tensor.Float32, Shape: []int{cols, rows}, Dir: restructure.Out},
		},
		Stages: []restructure.Stage{
			&restructure.TransposeStage{Out: "y", In: "x", Perm: []int{1, 0}},
		},
	}
	f := &benchFixture{
		ctx:    ctx,
		q:      ctx.Queue(dev),
		kernel: k,
		inputs: map[string]*Buffer{
			"x": ctx.CreateBuffer("x", x),
		},
		outputs: map[string]*Buffer{
			"y": ctx.CreateEmptyBuffer("y", tensor.Float32, cols, rows),
		},
		machine: dev.machine,
		rawIn:   map[string]*tensor.Tensor{"x": x},
	}
	return f
}

// dispatch enqueues one restructure and finishes the context, which
// retires the event, so the context does not accumulate history across
// benchmark iterations.
func (f *benchFixture) dispatch(tb testing.TB) {
	f.q.EnqueueRestructure(f.kernel, f.inputs, f.outputs)
	if err := f.ctx.Finish(); err != nil {
		tb.Fatal(err)
	}
}

// baselineDispatch reproduces the pre-cache, pre-fast-path dispatch:
// compile the kernel from scratch and run it on the element interpreter.
func (f *benchFixture) baselineDispatch(tb testing.TB) {
	c, err := drxc.Compile(f.kernel, drx.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	f.machine.ResetDRAM()
	if _, _, err := drxc.Execute(c, f.machine, f.rawIn); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkEnqueueRestructure measures the steady-state dispatch path.
//
//	cached:    the shipped path — program cache hit, bulk fast paths on
//	recompile: cache bypassed, fast paths on (isolates the cache's win)
//	baseline:  cache bypassed, fast paths off (the pre-optimization path)
//
// cached vs baseline is the dispatch-loop speedup this package claims;
// the differential tests prove the three produce identical bytes.
func BenchmarkEnqueueRestructure(b *testing.B) {
	f := newBenchFixture(b)
	f.dispatch(b) // warm the program cache and the machine
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.dispatch(b)
		}
	})
	b.Run("recompile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := drxc.Compile(f.kernel, drx.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			f.machine.ResetDRAM()
			if _, _, err := drxc.Execute(c, f.machine, f.rawIn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline", func(b *testing.B) {
		f.machine.SetFastPath(false)
		defer f.machine.SetFastPath(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.baselineDispatch(b)
		}
	})
}

// TestEnqueueRestructureCachedAllocs pins the steady-state allocations
// of BenchmarkEnqueueRestructure's three dispatch paths: a cached
// enqueue allocates a small constant number of objects (event
// bookkeeping, output tensors), well below a per-dispatch compilation.
// The bounds are the figures each path measures; an extra allocation
// on any of them fails here. They skip under the race detector, whose
// instrumented build allocates more on the compile paths (38 against
// 34); the ratio check still runs.
func TestEnqueueRestructureCachedAllocs(t *testing.T) {
	f := newBenchFixture(t)
	f.dispatch(t)
	cached := testing.AllocsPerRun(50, func() { f.dispatch(t) })
	recompile := testing.AllocsPerRun(50, func() {
		c, err := drxc.Compile(f.kernel, drx.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		f.machine.ResetDRAM()
		if _, _, err := drxc.Execute(c, f.machine, f.rawIn); err != nil {
			t.Fatal(err)
		}
	})
	f.machine.SetFastPath(false)
	baseline := testing.AllocsPerRun(50, func() { f.baselineDispatch(t) })
	f.machine.SetFastPath(true)
	for _, row := range []struct {
		name  string
		got   float64
		bound float64
	}{{"cached", cached, 15}, {"recompile", recompile, 34}, {"baseline", baseline, 34}} {
		if row.got > row.bound && !raceEnabled {
			t.Errorf("%s dispatch allocates %.0f objects/op, want <= %.0f", row.name, row.got, row.bound)
		}
	}
	if cached*2 > baseline {
		t.Errorf("cached enqueue (%.0f allocs) not well below per-dispatch compile (%.0f allocs)",
			cached, baseline)
	}
}
