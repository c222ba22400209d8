package drx

import (
	"fmt"
	"math"

	"dmx/internal/isa"
)

// Timing constants of the fixed-function units, in core cycles.
const (
	// barrierCycles drains the decoupled pipelines at a Barrier.
	barrierCycles = 16
	// dmaIssueCycles configures the DMA engine for a peer transfer.
	dmaIssueCycles = 32
	// transFixedCycles is the Transposition Engine setup cost per tile.
	transFixedCycles = 4
	// memIssueCycles is the Off-chip Data Access Engine's per-request
	// cost; the decoupled front-end hides DRAM latency beyond it.
	memIssueCycles = 4
	// dramBurstBytes is the DRAM burst size: the most one strided
	// element access can waste (see memCycles).
	dramBurstBytes = 64
)

// memCycles converts an off-chip transfer into access-engine cycles.
// Non-unit element strides waste DRAM burst bandwidth: each 64-byte burst
// yields only one element when the stride exceeds the burst.
func (m *Machine) memCycles(bytes int64, elemStride int32, dt isa.DT) int64 {
	stride := int64(elemStride)
	if stride < 0 {
		stride = -stride
	}
	if stride == 0 {
		stride = 1
	}
	span := stride * int64(dt.Size())
	if span > dramBurstBytes {
		span = dramBurstBytes
	}
	effective := bytes / int64(dt.Size()) * span
	cycles := ceilDiv(effective*int64(m.cfg.ClockHz/1e6), int64(m.cfg.DRAMBytesPerSec/1e6))
	return cycles + memIssueCycles
}

// vector executes one RE-lane instruction over N elements.
func (ex *execution) vector(in isa.Instr, loopIdx []int32) error {
	m := ex.m
	dst, err := ex.streamRef(in.Dst)
	if err != nil {
		return err
	}
	src1, err := ex.streamRef(in.Src1)
	if err != nil {
		return err
	}
	if dst.space != isa.Scratch || src1.space != isa.Scratch {
		return fmt.Errorf("%s: operands must be scratch streams", in.Op)
	}
	var src2 *stream
	if !in.Op.IsUnary() && !in.Op.HasImm() {
		if src2, err = ex.streamRef(in.Src2); err != nil {
			return err
		}
		if src2.space != isa.Scratch {
			return fmt.Errorf("%s: src2 must be a scratch stream", in.Op)
		}
	}
	ops := vecOperands{n: int64(in.N), dst: dst, src1: src1, src2: src2,
		da: dst.addr(loopIdx), sa: src1.addr(loopIdx)}
	if src2 != nil {
		ops.sb = src2.addr(loopIdx)
	}
	if ex.timing {
		if !m.vectorSpansOK(in.Op, &ops) {
			return fmt.Errorf("%s: scratch operand span of %d out of range", in.Op, ops.n)
		}
	} else if err := m.vectorData(in, &ops); err != nil {
		return err
	}
	lanes := int64(m.cfg.Lanes)
	ex.res.ComputeCycles += ceilDiv(ops.n, lanes)
	if in.Op == isa.VRSum || in.Op == isa.VRMax {
		// The lane-combining tree of a reduction.
		ex.res.ComputeCycles += log2i(lanes)
	}
	return nil
}

// vecOperands is one vector instruction's resolved operands: length and
// stream start addresses under the current loop indices (src2 is nil
// for unary and immediate forms).
type vecOperands struct {
	n               int64
	dst, src1, src2 *stream
	da, sa, sb      int64
}

// vectorData runs a vector instruction's element loop over the
// scratchpad.
func (m *Machine) vectorData(in isa.Instr, ops *vecOperands) error {
	n, da, sa := ops.n, ops.da, ops.sa
	readS1 := func(i int64) (float32, error) { return m.scratchAt(sa + i*int64(ops.src1.elemStride)) }
	writeD := func(i int64, v float32) error { return m.scratchSet(da+i*int64(ops.dst.elemStride), v) }

	switch in.Op {
	case isa.VRSum, isa.VRMax:
		var acc float32
		for i := int64(0); i < n; i++ {
			v, err := readS1(i)
			if err != nil {
				return err
			}
			if in.Op == isa.VRSum {
				acc += v
			} else if i == 0 || v > acc {
				acc = v
			}
		}
		return writeD(0, acc)
	case isa.VMacS:
		scalar, err := m.scratchAt(ops.sb)
		if err != nil {
			return err
		}
		for i := int64(0); i < n; i++ {
			v, err := readS1(i)
			if err != nil {
				return err
			}
			old, err := m.scratchAt(da + i*int64(ops.dst.elemStride))
			if err != nil {
				return err
			}
			if err := writeD(i, old+v*scalar); err != nil {
				return err
			}
		}
		return nil
	}

	for i := int64(0); i < n; i++ {
		a, err := readS1(i)
		if err != nil {
			return err
		}
		var out float32
		switch {
		case in.Op.IsUnary():
			out = unaryOp(in.Op, a)
		case in.Op.HasImm():
			out = binOp(immBase(in.Op), a, in.Imm)
		default:
			b, err := m.scratchAt(ops.sb + i*int64(ops.src2.elemStride))
			if err != nil {
				return err
			}
			out = binOp(in.Op, a, b)
		}
		if err := writeD(i, out); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) scratchAt(i int64) (float32, error) {
	if !m.scratchOK(i) {
		return 0, fmt.Errorf("scratch read %d out of range (size %d)", i, len(m.scratch))
	}
	return m.scratch[i], nil
}

func (m *Machine) scratchSet(i int64, v float32) error {
	if !m.scratchOK(i) {
		return fmt.Errorf("scratch write %d out of range (size %d)", i, len(m.scratch))
	}
	m.scratch[i] = v
	return nil
}

// immBase maps an immediate opcode to its two-operand form.
func immBase(op isa.Opcode) isa.Opcode {
	switch op {
	case isa.VAddI:
		return isa.VAdd
	case isa.VSubI:
		return isa.VSub
	case isa.VMulI:
		return isa.VMul
	case isa.VDivI:
		return isa.VDiv
	case isa.VMinI:
		return isa.VMin
	case isa.VMaxI:
		return isa.VMax
	}
	panic(fmt.Sprintf("drx: %v has no immediate form", op))
}

func binOp(op isa.Opcode, a, b float32) float32 {
	switch op {
	case isa.VAdd:
		return a + b
	case isa.VSub:
		return a - b
	case isa.VMul:
		return a * b
	case isa.VDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case isa.VMin:
		return float32(math.Min(float64(a), float64(b)))
	case isa.VMax:
		return float32(math.Max(float64(a), float64(b)))
	case isa.VMod:
		if b == 0 {
			return 0
		}
		return float32(math.Mod(float64(a), float64(b)))
	}
	panic(fmt.Sprintf("drx: not a binary op: %v", op))
}

func unaryOp(op isa.Opcode, a float32) float32 {
	switch op {
	case isa.VMov:
		return a
	case isa.VNeg:
		return -a
	case isa.VAbs:
		return float32(math.Abs(float64(a)))
	case isa.VSqrt:
		if a < 0 {
			return 0
		}
		return float32(math.Sqrt(float64(a)))
	case isa.VLog:
		x := float64(a)
		if x < 1e-30 {
			x = 1e-30
		}
		return float32(math.Log(x))
	case isa.VExp:
		return float32(math.Exp(float64(a)))
	case isa.VFloor:
		return float32(math.Floor(float64(a)))
	}
	panic(fmt.Sprintf("drx: not a unary op: %v", op))
}

func log2i(n int64) int64 {
	var l int64
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
