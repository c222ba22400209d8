package drx

import (
	"encoding/binary"
	"fmt"
	"math"

	"dmx/internal/isa"
)

// Machine is one DRX device instance: DRAM, scratchpad, stream registers,
// and the cycle counters of the three pipeline domains. A Machine is not
// safe for concurrent use.
type Machine struct {
	cfg     Config
	dram    []byte
	scratch []float32
	streams [isa.MaxStreams]stream
	sregs   [isa.NumScalarRegs]int64
	heap    int64 // bump allocator watermark for AllocDRAM
	// dirty is the high-water mark of DRAM writes since the last
	// ResetDRAM; bytes at and beyond it are guaranteed zero, so a reset
	// zeroes only [0, dirty).
	dirty int64

	// noFast disables the bulk unit-stride operand paths, forcing the
	// reference element interpreter (see fastpath.go).
	noFast bool
	// transBuf is the Transposition Engine's reusable staging tile.
	transBuf []float32
	// meta memoizes per-program execution metadata (encoded size, loop
	// end table) keyed by program identity. Programs are compiled once
	// and immutable, so the memo is sound; the map is bounded by the
	// number of distinct programs this machine runs.
	meta map[*isa.Program]*progMeta

	// OnDMA, when set, observes Dma instructions (queue id and byte
	// count); the system layer uses it to trigger point-to-point
	// transfers. The machine itself moves no data for Dma.
	OnDMA func(queue int32, bytes int64)
}

// progMeta is the per-program execution metadata Run derives once: the
// encoded byte size (for the icache admission check), for every
// LoopBegin at index i the index of its matching LoopEnd — so the
// interpreter's hot loop does not rescan the instruction stream on every
// outer-loop iteration — and what a timing walk needs to decide whether
// it may collapse the program's loops (see timing.go).
type progMeta struct {
	encLen  int
	loopEnd []int32
	// maxTrip is the largest loop count; wraps reports whether some
	// CfgStream's addresses could leave the linear range under it.
	maxTrip int64
	wraps   bool
}

// SetFastPath enables or disables the bulk unit-stride operand paths
// (on by default) and, for Time, the closed-form loops. Both are
// bit-identical to the reference walk — cycle accounting included — so
// this switch exists only for the differential checkers and benchmarks
// that prove it: with it off, Run moves every element one at a time and
// Time walks every loop iteration.
func (m *Machine) SetFastPath(on bool) { m.noFast = !on }

// stream is one configured address generator.
type stream struct {
	configured bool
	space      isa.Space
	dtype      isa.DT
	base       int64 // elements
	elemStride int32
	strides    []int32 // per loop level, outermost first
}

// Result reports the cycle accounting of one program execution. The
// access and execute domains are decoupled (Sec. IV-B), so the runtime is
// the slower of the two plus the serial front-end work.
type Result struct {
	ComputeCycles int64 // RE lanes + transposition engine
	MemCycles     int64 // off-chip data access engine
	CtrlCycles    int64 // configuration, sync, scalar ops
	Instrs        int64 // dynamic instruction count
	BytesLoaded   int64
	BytesStored   int64
	DMABytes      int64
}

// Cycles reports the modeled total: max of the overlapped domains plus
// the serial control cycles.
func (r Result) Cycles() int64 {
	c := r.ComputeCycles
	if r.MemCycles > c {
		c = r.MemCycles
	}
	return c + r.CtrlCycles
}

// Seconds converts the total cycles to time at the given clock.
func (r Result) Seconds(clockHz float64) float64 {
	return float64(r.Cycles()) / clockHz
}

// New creates a machine with the given configuration. DRAM is allocated
// lazily by AllocDRAM/WriteDRAM up to cfg.DRAMBytes.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{
		cfg:     cfg,
		scratch: make([]float32, cfg.ScratchElems()),
	}, nil
}

// Config returns the machine's hardware configuration.
func (m *Machine) Config() Config { return m.cfg }

// AllocDRAM reserves n bytes of device memory (16-byte aligned) and
// returns its base address.
func (m *Machine) AllocDRAM(n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("drx: negative allocation %d", n)
	}
	addr := (m.heap + 15) &^ 15
	if addr+n > m.cfg.DRAMBytes {
		return 0, fmt.Errorf("drx: DRAM exhausted (%d of %d bytes)", addr+n, m.cfg.DRAMBytes)
	}
	m.heap = addr + n
	m.ensure(addr + n)
	return addr, nil
}

// ResetDRAM clears the allocator and zeroes device memory. Only the
// written prefix [0, dirty) needs clearing: ensure-grown memory starts
// zeroed and every write advances the dirty watermark, so bytes beyond
// it are already zero.
func (m *Machine) ResetDRAM() {
	m.heap = 0
	end := m.dirty
	if end > int64(len(m.dram)) {
		end = int64(len(m.dram))
	}
	clear(m.dram[:end])
	m.dirty = 0
}

// touch advances the dirty watermark past a write ending at end.
func (m *Machine) touch(end int64) {
	if end > m.dirty {
		m.dirty = end
	}
}

func (m *Machine) ensure(n int64) {
	if int64(len(m.dram)) >= n {
		return
	}
	// Grow geometrically: element-granular stores walk the heap forward,
	// and exact-fit growth would reallocate per element.
	newCap := int64(len(m.dram))*2 + 4096
	if newCap < n {
		newCap = n
	}
	if newCap > m.cfg.DRAMBytes {
		newCap = m.cfg.DRAMBytes
	}
	grown := make([]byte, newCap)
	copy(grown, m.dram)
	m.dram = grown
}

// WriteDRAM copies data into device memory at addr.
func (m *Machine) WriteDRAM(addr int64, data []byte) error {
	if addr < 0 || addr+int64(len(data)) > m.cfg.DRAMBytes {
		return fmt.Errorf("drx: write [%d,%d) outside DRAM", addr, addr+int64(len(data)))
	}
	m.ensure(addr + int64(len(data)))
	copy(m.dram[addr:], data)
	m.touch(addr + int64(len(data)))
	return nil
}

// ReadDRAM copies n bytes of device memory at addr.
func (m *Machine) ReadDRAM(addr, n int64) ([]byte, error) {
	if addr < 0 || addr+n > m.cfg.DRAMBytes {
		return nil, fmt.Errorf("drx: read [%d,%d) outside DRAM", addr, addr+n)
	}
	m.ensure(addr + n)
	out := make([]byte, n)
	copy(out, m.dram[addr:])
	return out, nil
}

// Run executes a program to completion and returns its cycle accounting.
// The program must validate and its encoded form must fit the
// instruction cache. Programs are treated as immutable: per-program
// metadata (encoded size, loop table) is memoized on first execution.
func (m *Machine) Run(p *isa.Program) (Result, error) { return m.run(p, false) }

// Time walks a program as Run does — same control flow, stream and
// loop state, operand and range checks, and cycle accounting — but
// moves no element data: DRAM and the scratchpad are neither read nor
// written. DRX timing is data-independent, so Time returns the Result
// Run would over any DRAM contents, and fails exactly when Run would
// (the error text may differ). A hardware loop of more than three trips
// is walked at iterations 0, 1 and N−1 only, with iteration 1's counter
// delta standing in for the iterations between, unless the machine has
// an OnDMA hook, its fast paths are off, or the program's addresses
// could wrap. Skipped iterations leave the scalar registers as they
// were; nothing reads those but SAdd and SMul, so no Result or error
// can tell. See timing.go.
func (m *Machine) Time(p *isa.Program) (Result, error) { return m.run(p, true) }

// run is the one interpreter behind Run and Time.
func (m *Machine) run(p *isa.Program, timing bool) (Result, error) {
	meta, err := m.progMetaFor(p)
	if err != nil {
		return Result{}, err
	}
	if meta.encLen > m.cfg.ICacheBytes {
		return Result{}, fmt.Errorf("drx: program %s (%d B encoded) exceeds %d B icache",
			p.Name, meta.encLen, m.cfg.ICacheBytes)
	}
	var ex execution
	ex.m = m
	ex.meta = meta
	ex.timing = timing
	ex.collapse = timing && !m.noFast && m.OnDMA == nil && !meta.wraps && !m.streamsWrap(meta.maxTrip)
	if err := ex.block(p.Instrs, 0, len(p.Instrs)); err != nil {
		return Result{}, fmt.Errorf("drx: %s: %w", p.Name, err)
	}
	return ex.res, nil
}

// progMetaFor validates p once and derives its execution metadata.
func (m *Machine) progMetaFor(p *isa.Program) (*progMeta, error) {
	if meta, ok := m.meta[p]; ok {
		return meta, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	enc, err := isa.Encode(p)
	if err != nil {
		return nil, err
	}
	meta := &progMeta{encLen: len(enc), loopEnd: make([]int32, len(p.Instrs))}
	var stack [isa.MaxLoopDepth]int32
	depth := 0
	for i, in := range p.Instrs {
		switch in.Op {
		case isa.LoopBegin:
			stack[depth] = int32(i)
			depth++
			meta.maxTrip = max(meta.maxTrip, int64(in.N))
		case isa.LoopEnd:
			depth--
			meta.loopEnd[stack[depth]] = int32(i)
		}
	}
	for _, in := range p.Instrs {
		meta.wraps = meta.wraps || in.Op == isa.CfgStream && mayWrap(in.Base, in.Strides, meta.maxTrip)
	}
	if m.meta == nil {
		m.meta = make(map[*isa.Program]*progMeta)
	}
	m.meta[p] = meta
	return meta, nil
}

// execution holds the per-run interpreter state. The loop index stack is
// a fixed array (Validate bounds nesting by isa.MaxLoopDepth), so hot
// loops allocate nothing.
type execution struct {
	m    *Machine
	meta *progMeta
	// timing walks without moving data: operand spans are range-checked
	// as a whole and element transfers are skipped (Machine.Time).
	timing bool
	// collapse walks a timed loop in closed form (timing.go).
	collapse bool
	res      Result
	halted   bool
	depth    int
	idx      [isa.MaxLoopDepth]int32
}

// loopIdx is the live loop index stack, outermost first.
func (ex *execution) loopIdx() []int32 { return ex.idx[:ex.depth] }

// block interprets instrs[from:to) under the current loop index stack.
func (ex *execution) block(instrs []isa.Instr, from, to int) error {
	for pc := from; pc < to && !ex.halted; pc++ {
		in := instrs[pc]
		ex.res.Instrs++
		switch in.Op {
		case isa.Nop:
			ex.res.CtrlCycles++
		case isa.Halt:
			ex.res.CtrlCycles++
			ex.halted = true
			return nil
		case isa.Barrier:
			// Synchronization drains both pipelines: the domains join.
			ex.res.CtrlCycles += barrierCycles
			ex.join()
		case isa.LoopBegin:
			end := int(ex.meta.loopEnd[pc])
			// One cycle to configure the Instruction Repeater; iterations
			// themselves are free of branch overhead (hardware loops).
			ex.res.CtrlCycles++
			ex.idx[ex.depth] = 0
			ex.depth++
			for i := int32(0); i < in.N && !ex.halted; i++ {
				ex.idx[ex.depth-1] = i
				before := ex.res
				if err := ex.block(instrs, pc+1, end); err != nil {
					return err
				}
				if i == 1 && ex.collapse && in.N > 3 {
					// Iterations 2 … N−2 each repeat iteration 1's delta.
					ex.res.repeat(before, int64(in.N)-3)
					i = in.N - 2
				}
			}
			ex.depth--
			pc = end
		case isa.LoopEnd:
			// Reached only when block bounds are wrong.
			return fmt.Errorf("instr %d: stray endloop", pc)
		case isa.CfgStream:
			ex.res.CtrlCycles++
			m := ex.m
			m.streams[in.Dst] = stream{
				configured: true,
				space:      in.Space,
				dtype:      in.DType,
				base:       in.Base,
				elemStride: in.ElemStride,
				strides:    in.Strides,
			}
		case isa.Load:
			if err := ex.load(in, ex.loopIdx()); err != nil {
				return fmt.Errorf("instr %d: %w", pc, err)
			}
		case isa.Store:
			if err := ex.store(in, ex.loopIdx()); err != nil {
				return fmt.Errorf("instr %d: %w", pc, err)
			}
		case isa.Trans:
			if err := ex.transpose(in, ex.loopIdx()); err != nil {
				return fmt.Errorf("instr %d: %w", pc, err)
			}
		case isa.Dma:
			ex.res.CtrlCycles += dmaIssueCycles
			ex.res.DMABytes += int64(in.N)
			if ex.m.OnDMA != nil {
				ex.m.OnDMA(in.Dst, int64(in.N))
			}
		case isa.SLi:
			ex.res.CtrlCycles++
			ex.m.sregs[in.Dst] = in.ImmInt
		case isa.SAdd:
			ex.res.CtrlCycles++
			ex.m.sregs[in.Dst] = ex.m.sregs[in.Src1] + ex.m.sregs[in.Src2]
		case isa.SMul:
			ex.res.CtrlCycles++
			ex.m.sregs[in.Dst] = ex.m.sregs[in.Src1] * ex.m.sregs[in.Src2]
		default:
			if !in.Op.IsVector() {
				return fmt.Errorf("instr %d: unimplemented opcode %s", pc, in.Op)
			}
			if err := ex.vector(in, ex.loopIdx()); err != nil {
				return fmt.Errorf("instr %d: %w", pc, err)
			}
		}
	}
	return nil
}

// join models a pipeline barrier: both decoupled domains advance to the
// max and continue from there.
func (ex *execution) join() {
	mx := ex.res.ComputeCycles
	if ex.res.MemCycles > mx {
		mx = ex.res.MemCycles
	}
	ex.res.ComputeCycles = mx
	ex.res.MemCycles = mx
}

// addr computes a stream's current element address under the loop
// indices, per the <Base, Stride, Iteration> scheme.
func (s *stream) addr(loopIdx []int32) int64 {
	a := s.base
	for l, idx := range loopIdx {
		if l < len(s.strides) {
			a += int64(s.strides[l]) * int64(idx)
		}
	}
	return a
}

func (ex *execution) streamRef(id int32) (*stream, error) {
	s := &ex.m.streams[id]
	if !s.configured {
		return nil, fmt.Errorf("stream s%d used before cfgstream", id)
	}
	return s, nil
}

// load moves N elements DRAM→scratch, widening to f32 lanes.
func (ex *execution) load(in isa.Instr, loopIdx []int32) error {
	dst, err := ex.streamRef(in.Dst)
	if err != nil {
		return err
	}
	src, err := ex.streamRef(in.Src1)
	if err != nil {
		return err
	}
	if src.space != isa.DRAM || dst.space != isa.Scratch {
		return fmt.Errorf("load wants dram→scratch, got %v→%v", src.space, dst.space)
	}
	sa, da := src.addr(loopIdx), dst.addr(loopIdx)
	n := int64(in.N)
	switch {
	case ex.timing:
		if !ex.m.dramSpanOK(src.dtype, sa, src.elemStride, n) {
			return fmt.Errorf("load: dram span of %d at element %d (%v) out of range", n, sa, src.dtype)
		}
		if !ex.m.scratchSpanOK(da, dst.elemStride, n) {
			return fmt.Errorf("load: scratch span of %d at index %d out of range", n, da)
		}
	case !ex.m.loadSpan(src.dtype, sa, src.elemStride, da, dst.elemStride, n):
		for i := int64(0); i < n; i++ {
			v, err := ex.m.readElem(src.dtype, sa+i*int64(src.elemStride))
			if err != nil {
				return err
			}
			si := da + i*int64(dst.elemStride)
			if !ex.m.scratchOK(si) {
				return fmt.Errorf("load: scratch index %d out of range", si)
			}
			ex.m.scratch[si] = v
		}
	}
	bytes := n * int64(src.dtype.Size())
	ex.res.BytesLoaded += bytes
	ex.res.MemCycles += ex.m.memCycles(bytes, src.elemStride, src.dtype)
	return nil
}

// store moves N elements scratch→DRAM, narrowing with saturation.
func (ex *execution) store(in isa.Instr, loopIdx []int32) error {
	dst, err := ex.streamRef(in.Dst)
	if err != nil {
		return err
	}
	src, err := ex.streamRef(in.Src1)
	if err != nil {
		return err
	}
	if dst.space != isa.DRAM || src.space != isa.Scratch {
		return fmt.Errorf("store wants scratch→dram, got %v→%v", src.space, dst.space)
	}
	sa, da := src.addr(loopIdx), dst.addr(loopIdx)
	n := int64(in.N)
	switch {
	case ex.timing:
		if !ex.m.scratchSpanOK(sa, src.elemStride, n) {
			return fmt.Errorf("store: scratch span of %d at index %d out of range", n, sa)
		}
		if !ex.m.dramSpanOK(dst.dtype, da, dst.elemStride, n) {
			return fmt.Errorf("store: dram span of %d at element %d (%v) out of range", n, da, dst.dtype)
		}
	case !ex.m.storeSpan(dst.dtype, da, dst.elemStride, sa, src.elemStride, n):
		for i := int64(0); i < n; i++ {
			si := sa + i*int64(src.elemStride)
			if !ex.m.scratchOK(si) {
				return fmt.Errorf("store: scratch index %d out of range", si)
			}
			if err := ex.m.writeElem(dst.dtype, da+i*int64(dst.elemStride), ex.m.scratch[si]); err != nil {
				return err
			}
		}
	}
	bytes := n * int64(dst.dtype.Size())
	ex.res.BytesStored += bytes
	ex.res.MemCycles += ex.m.memCycles(bytes, dst.elemStride, dst.dtype)
	return nil
}

// transpose runs the Transposition Engine on an N×M scratch tile.
func (ex *execution) transpose(in isa.Instr, loopIdx []int32) error {
	dst, err := ex.streamRef(in.Dst)
	if err != nil {
		return err
	}
	src, err := ex.streamRef(in.Src1)
	if err != nil {
		return err
	}
	if dst.space != isa.Scratch || src.space != isa.Scratch {
		return fmt.Errorf("trans operands must be scratch streams")
	}
	rows, cols := int64(in.N), int64(in.M)
	sa, da := src.addr(loopIdx), dst.addr(loopIdx)
	total := rows * cols
	if !ex.m.scratchSpanOK(sa, 1, total) || !ex.m.scratchSpanOK(da, 1, total) {
		return fmt.Errorf("trans: tile outside scratchpad")
	}
	if !ex.timing {
		// Stage through a reusable tile buffer: the engine's banked SRAM
		// in hardware, and an allocation-free hot loop here.
		if int64(cap(ex.m.transBuf)) < total {
			ex.m.transBuf = make([]float32, total)
		}
		tmp := ex.m.transBuf[:total]
		for r := int64(0); r < rows; r++ {
			row := ex.m.scratch[sa+r*cols : sa+(r+1)*cols]
			for c, v := range row {
				tmp[int64(c)*rows+r] = v
			}
		}
		copy(ex.m.scratch[da:da+total], tmp)
	}
	ex.res.ComputeCycles += ceilDiv(total, int64(ex.m.cfg.Lanes)) + transFixedCycles
	return nil
}

func (m *Machine) readElem(dt isa.DT, elem int64) (float32, error) {
	if !m.dramElemOK(dt, elem) {
		return 0, fmt.Errorf("dram read at element %d (%v) out of range", elem, dt)
	}
	off := elem * int64(dt.Size())
	m.ensure(off + int64(dt.Size()))
	b := m.dram[off:]
	switch dt {
	case isa.U8:
		return float32(b[0]), nil
	case isa.I8:
		return float32(int8(b[0])), nil
	case isa.I16:
		return float32(int16(binary.LittleEndian.Uint16(b))), nil
	case isa.I32:
		return float32(int32(binary.LittleEndian.Uint32(b))), nil
	case isa.F32:
		return math.Float32frombits(binary.LittleEndian.Uint32(b)), nil
	case isa.F64:
		return float32(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	}
	return 0, fmt.Errorf("unknown stream dtype %v", dt)
}

func (m *Machine) writeElem(dt isa.DT, elem int64, v float32) error {
	if !m.dramElemOK(dt, elem) {
		return fmt.Errorf("dram write at element %d (%v) out of range", elem, dt)
	}
	off := elem * int64(dt.Size())
	m.ensure(off + int64(dt.Size()))
	m.touch(off + int64(dt.Size()))
	b := m.dram[off:]
	switch dt {
	case isa.U8:
		b[0] = uint8(clampRound(v, 0, 255))
	case isa.I8:
		b[0] = byte(int8(clampRound(v, -128, 127)))
	case isa.I16:
		binary.LittleEndian.PutUint16(b, uint16(int16(clampRound(v, math.MinInt16, math.MaxInt16))))
	case isa.I32:
		binary.LittleEndian.PutUint32(b, uint32(int32(clampRound(v, math.MinInt32, math.MaxInt32))))
	case isa.F32:
		binary.LittleEndian.PutUint32(b, math.Float32bits(v))
	case isa.F64:
		binary.LittleEndian.PutUint64(b, math.Float64bits(float64(v)))
	default:
		return fmt.Errorf("unknown stream dtype %v", dt)
	}
	return nil
}

// clampRound matches the tensor package's half-away-from-zero rounding
// and saturation, so DRX stores agree with the reference executor.
//
// Rounding is computed as trunc(x ± 0.5) rather than math.Round: Trunc
// compiles to a single ROUNDSD instruction while Round is a software
// bit-manipulation routine, and narrowing stores pay this per element.
// For inputs that are exact float32 values the two agree everywhere
// (including subnormals, where x±0.5 rounds to ±0.5 exactly, and huge
// values, where the tie in x+0.5 breaks to the even — unchanged — x);
// TestClampRoundMatchesMathRound checks the equivalence across the
// float32 range.
func clampRound(v float32, lo, hi float64) float64 {
	x := float64(v)
	if x >= 0 {
		x = math.Trunc(x + 0.5)
	} else {
		x = math.Trunc(x - 0.5)
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
