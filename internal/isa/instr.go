package isa

import (
	"fmt"
	"strings"
)

// Instr is one decoded DRX instruction. Field meaning depends on Op:
//
//	LoopBegin:  N = iteration count
//	CfgStream:  Dst = stream id, Space/DType, Base = start address
//	            (bytes for DRAM, f32 elements for scratch), ElemStride =
//	            within-issue element stride, Strides[l] = per-loop-level
//	            element stride (outermost loop = level 0)
//	Load/Store: Dst = destination stream, Src1 = source stream, N = elems
//	V*:         Dst/Src1/Src2 = stream ids, N = lanes' element count,
//	            Imm = float immediate for *I forms
//	Trans:      Dst/Src1 = stream ids, N = rows, M = cols
//	Dma:        Dst = peer queue id, N = bytes
//	SLi:        Dst = scalar reg, ImmInt = value
//	SAdd/SMul:  Dst/Src1/Src2 = scalar regs
type Instr struct {
	Op         Opcode
	Dst        int32
	Src1       int32
	Src2       int32
	N          int32
	M          int32
	Imm        float32
	ImmInt     int64
	Space      Space
	DType      DT
	Base       int64
	ElemStride int32
	Strides    []int32
}

// Program is a complete DRX kernel binary: a flat instruction sequence
// terminated by Halt.
type Program struct {
	Name   string
	Instrs []Instr
}

// Validate checks structural well-formedness: defined opcodes, balanced
// hardware loops within the depth bound, stream ids in range, and a
// terminating Halt.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: %s: empty program", p.Name)
	}
	depth := 0
	for i, in := range p.Instrs {
		if !in.Op.Valid() {
			return fmt.Errorf("isa: %s: instr %d: invalid opcode %d", p.Name, i, uint8(in.Op))
		}
		switch in.Op {
		case LoopBegin:
			if in.N <= 0 {
				return fmt.Errorf("isa: %s: instr %d: loop count %d", p.Name, i, in.N)
			}
			depth++
			if depth > MaxLoopDepth {
				return fmt.Errorf("isa: %s: instr %d: loop nesting exceeds %d", p.Name, i, MaxLoopDepth)
			}
		case LoopEnd:
			depth--
			if depth < 0 {
				return fmt.Errorf("isa: %s: instr %d: unmatched endloop", p.Name, i)
			}
		case CfgStream:
			if in.Dst < 0 || in.Dst >= MaxStreams {
				return fmt.Errorf("isa: %s: instr %d: stream id %d out of range", p.Name, i, in.Dst)
			}
			if len(in.Strides) > MaxLoopDepth {
				return fmt.Errorf("isa: %s: instr %d: %d stride levels exceed %d", p.Name, i, len(in.Strides), MaxLoopDepth)
			}
			if in.Base < 0 {
				return fmt.Errorf("isa: %s: instr %d: negative base %d", p.Name, i, in.Base)
			}
		case Load, Store:
			if err := checkStream(in.Dst); err != nil {
				return fmt.Errorf("isa: %s: instr %d: dst: %w", p.Name, i, err)
			}
			if err := checkStream(in.Src1); err != nil {
				return fmt.Errorf("isa: %s: instr %d: src: %w", p.Name, i, err)
			}
			if in.N <= 0 {
				return fmt.Errorf("isa: %s: instr %d: transfer of %d elems", p.Name, i, in.N)
			}
		case Trans:
			if in.N <= 0 || in.M <= 0 {
				return fmt.Errorf("isa: %s: instr %d: trans %dx%d", p.Name, i, in.N, in.M)
			}
		case SLi, SAdd, SMul:
			// sli writes Dst only; sadd and smul also read Src1 and Src2.
			regs := []int32{in.Dst, in.Src1, in.Src2}
			if in.Op == SLi {
				regs = regs[:1]
			}
			for _, r := range regs {
				if r < 0 || r >= NumScalarRegs {
					return fmt.Errorf("isa: %s: instr %d: scalar reg %d out of range", p.Name, i, r)
				}
			}
		default:
			if in.Op.IsVector() {
				if err := checkStream(in.Dst); err != nil {
					return fmt.Errorf("isa: %s: instr %d: dst: %w", p.Name, i, err)
				}
				if err := checkStream(in.Src1); err != nil {
					return fmt.Errorf("isa: %s: instr %d: src1: %w", p.Name, i, err)
				}
				if !in.Op.IsUnary() && !in.Op.HasImm() {
					if err := checkStream(in.Src2); err != nil {
						return fmt.Errorf("isa: %s: instr %d: src2: %w", p.Name, i, err)
					}
				}
				if in.N <= 0 {
					return fmt.Errorf("isa: %s: instr %d: vector length %d", p.Name, i, in.N)
				}
			}
		}
	}
	if depth != 0 {
		return fmt.Errorf("isa: %s: %d unterminated loop(s)", p.Name, depth)
	}
	if p.Instrs[len(p.Instrs)-1].Op != Halt {
		return fmt.Errorf("isa: %s: program does not end in halt", p.Name)
	}
	return nil
}

func checkStream(id int32) error {
	if id < 0 || id >= MaxStreams {
		return fmt.Errorf("stream id %d out of range", id)
	}
	return nil
}

// String renders the instruction in assembler syntax.
func (in Instr) String() string {
	switch in.Op {
	case Nop, Halt, Barrier, LoopEnd:
		return in.Op.String()
	case LoopBegin:
		return fmt.Sprintf("loop %d", in.N)
	case CfgStream:
		var b strings.Builder
		fmt.Fprintf(&b, "cfgstream s%d %s %s base=%d estride=%d", in.Dst, in.Space, in.DType, in.Base, in.ElemStride)
		if len(in.Strides) > 0 {
			b.WriteString(" strides=")
			for i, s := range in.Strides {
				if i > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "%d", s)
			}
		}
		return b.String()
	case Load, Store:
		return fmt.Sprintf("%s s%d, s%d, %d", in.Op, in.Dst, in.Src1, in.N)
	case Trans:
		return fmt.Sprintf("trans s%d, s%d, %dx%d", in.Dst, in.Src1, in.N, in.M)
	case Dma:
		return fmt.Sprintf("dma q%d, %d", in.Dst, in.N)
	case SLi:
		return fmt.Sprintf("sli r%d, %d", in.Dst, in.ImmInt)
	case SAdd, SMul:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Dst, in.Src1, in.Src2)
	default:
		if in.Op.IsVector() {
			switch {
			case in.Op.HasImm():
				return fmt.Sprintf("%s s%d, s%d, %g, %d", in.Op, in.Dst, in.Src1, in.Imm, in.N)
			case in.Op.IsUnary():
				return fmt.Sprintf("%s s%d, s%d, %d", in.Op, in.Dst, in.Src1, in.N)
			case in.Op == VMacS:
				return fmt.Sprintf("vmacs s%d, s%d, s%d, %d", in.Dst, in.Src1, in.Src2, in.N)
			default:
				return fmt.Sprintf("%s s%d, s%d, s%d, %d", in.Op, in.Dst, in.Src1, in.Src2, in.N)
			}
		}
		return in.Op.String()
	}
}

// Disassemble renders the whole program with loop-nest indentation.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s (%d instrs)\n", p.Name, len(p.Instrs))
	indent := 0
	for _, in := range p.Instrs {
		if in.Op == LoopEnd && indent > 0 {
			indent--
		}
		b.WriteString(strings.Repeat("  ", indent))
		b.WriteString(in.String())
		b.WriteByte('\n')
		if in.Op == LoopBegin {
			indent++
		}
	}
	return b.String()
}
