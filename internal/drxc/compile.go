package drxc

import (
	"fmt"
	"sync"

	"dmx/internal/drx"
	"dmx/internal/isa"
	"dmx/internal/restructure"
	"dmx/internal/tensor"
)

// Compiled is the result of compiling one kernel for one hardware
// configuration: the program plus the DRAM placement of every parameter.
type Compiled struct {
	Prog *isa.Program
	// Layout maps parameter name to its DRAM byte address.
	Layout map[string]int64
	// DRAMBytes is the total device memory the kernel's parameters need.
	DRAMBytes int64

	kernel *restructure.Kernel
	cfg    drx.Config

	// timed memoizes Time's walk, which depends only on the fields
	// above: none of them changes after Compile.
	timed   sync.Once
	timing  drx.Result
	timeErr error
}

// Options disable individual compiler optimizations, for ablation
// studies of the schedule choices (see bench_ablation_test.go and the
// DESIGN.md experiment index). The zero value enables everything.
type Options struct {
	// NoBlockedMap disables the merged-inner-dimension Map schedule;
	// narrow Maps fall back to per-row issues.
	NoBlockedMap bool
	// NoTransEngine disables the Transposition Engine panel schedule;
	// transposes lower to strided-copy Maps on the vector pipeline.
	NoTransEngine bool
	// NoGatherShare gives every gather leaf its own row panel instead of
	// sharing one load across leaves of the same rows.
	NoGatherShare bool
}

// Compile lowers a kernel to a DRX program for the given configuration
// with all optimizations enabled.
func Compile(k *restructure.Kernel, cfg drx.Config) (*Compiled, error) {
	return CompileWithOptions(k, cfg, Options{})
}

// CompileWithOptions lowers a kernel with selected optimizations
// disabled.
func CompileWithOptions(k *restructure.Kernel, cfg drx.Config, opts Options) (*Compiled, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &builder{k: k, cfg: cfg, opts: opts, layout: make(map[string]int64)}
	// Place every parameter in device memory, 16-byte aligned.
	for i := range k.Params {
		p := &k.Params[i]
		if _, err := mapDT(p.DType); err != nil && p.DType != tensor.Complex64 {
			return nil, fmt.Errorf("drxc: %s: parameter %q: %w", k.Name, p.Name, err)
		}
		b.layout[p.Name] = b.dramTop
		b.dramTop = align16(b.dramTop + int64(p.SizeBytes()))
	}
	for i, s := range k.Stages {
		b.resetStage()
		if err := b.lowerStage(s); err != nil {
			return nil, fmt.Errorf("drxc: %s: stage %d (%s): %w", k.Name, i, s.Kind(), err)
		}
		// Stages communicate through DRAM temps; a barrier orders the
		// off-chip stores of one stage before the loads of the next.
		b.emit(isa.Instr{Op: isa.Barrier})
	}
	b.emit(isa.Instr{Op: isa.Halt})
	prog := &isa.Program{Name: k.Name, Instrs: b.prog}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("drxc: %s: generated invalid program: %w", k.Name, err)
	}
	return &Compiled{
		Prog:      prog,
		Layout:    b.layout,
		DRAMBytes: b.dramTop,
		kernel:    k,
		cfg:       cfg,
	}, nil
}

func align16(n int64) int64 { return (n + 15) &^ 15 }

// mapDT converts a tensor dtype to the ISA's off-chip element type.
// Complex64 has no direct mapping: the compiler decomposes complex
// streams into stride-2 F32 component streams.
func mapDT(d tensor.DType) (isa.DT, error) {
	switch d {
	case tensor.Uint8:
		return isa.U8, nil
	case tensor.Int8:
		return isa.I8, nil
	case tensor.Int16:
		return isa.I16, nil
	case tensor.Int32:
		return isa.I32, nil
	case tensor.Float32:
		return isa.F32, nil
	case tensor.Float64:
		return isa.F64, nil
	}
	return 0, fmt.Errorf("dtype %v unsupported by the DRX ISA", d)
}

// builder accumulates instructions and allocates machine resources.
type builder struct {
	k       *restructure.Kernel
	cfg     drx.Config
	opts    Options
	prog    []isa.Instr
	layout  map[string]int64
	dramTop int64

	// Per-nest allocator state (reset by resetNest).
	nextStream int32
	scratchTop int64
}

func (b *builder) emit(in isa.Instr) { b.prog = append(b.prog, in) }

// resetStage recycles stream registers and scratchpad space; stages are
// separated by barriers so reuse is safe.
func (b *builder) resetStage() { b.resetNest() }

// resetNest recycles allocator state between sibling loop nests (main
// body vs. remainder) within a stage.
func (b *builder) resetNest() {
	b.nextStream = 0
	b.scratchTop = 0
}

// stream emits a CfgStream and returns the register id.
func (b *builder) stream(space isa.Space, dt isa.DT, base int64, estride int32, strides []int32) (int32, error) {
	if b.nextStream >= isa.MaxStreams {
		return 0, fmt.Errorf("out of stream registers (max %d)", isa.MaxStreams)
	}
	id := b.nextStream
	b.nextStream++
	b.emit(isa.Instr{
		Op: isa.CfgStream, Dst: id, Space: space, DType: dt,
		Base: base, ElemStride: estride, Strides: trimStrides(strides),
	})
	return id, nil
}

// trimStrides copies the stride list (trailing zeros and all — stream
// levels must align positionally with loop depth).
func trimStrides(s []int32) []int32 {
	if len(s) == 0 {
		return nil
	}
	out := make([]int32, len(s))
	copy(out, s)
	return out
}

// allocScratch reserves n f32 elements of scratchpad.
func (b *builder) allocScratch(n int64) (int64, error) {
	if b.scratchTop+n > int64(b.cfg.ScratchElems()) {
		return 0, fmt.Errorf("scratchpad exhausted (%d of %d f32 elems)",
			b.scratchTop+n, b.cfg.ScratchElems())
	}
	base := b.scratchTop
	b.scratchTop += n
	return base, nil
}

// param returns the declared parameter (always present post-Validate).
func (b *builder) param(name string) *restructure.Param {
	p, _ := b.k.Param(name)
	return p
}

// baseElems converts a parameter's byte address into element units for
// a stream of element size esz.
func (b *builder) baseElems(name string, esz int) int64 {
	return b.layout[name] / int64(esz)
}

// rowMajor computes row-major element strides for a shape.
func rowMajor(shape []int) []int64 {
	s := make([]int64, len(shape))
	acc := int64(1)
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= int64(shape[i])
	}
	return s
}

// lowerStage dispatches on the stage type.
func (b *builder) lowerStage(s restructure.Stage) error {
	switch st := s.(type) {
	case *restructure.MapStage:
		return b.lowerMap(st)
	case *restructure.ReduceStage:
		return b.lowerReduce(st)
	case *restructure.MatMulStage:
		return b.lowerMatMul(st)
	case *restructure.TransposeStage:
		return b.lowerTranspose(st)
	case *restructure.TypecastStage:
		return b.lowerTypecast(st)
	case *restructure.ReshapeStage:
		return b.lowerReshape(st)
	}
	return fmt.Errorf("no lowering for stage kind %q", s.Kind())
}
