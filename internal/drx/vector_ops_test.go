package drx

import (
	"math"
	"testing"

	"dmx/internal/isa"
)

// runBinary executes one two-operand vector op over (a, b) and returns
// the result.
func runBinary(t *testing.T, op isa.Opcode, a, b float32) float32 {
	t.Helper()
	m := newMachine(t)
	if err := m.WriteDRAM(0, f32bytes(a, b)); err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{
		Name: "binop",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.DRAM, DType: isa.F32, Base: 1, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 2, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 3, Space: isa.Scratch, DType: isa.F32, Base: 8, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 4, Space: isa.DRAM, DType: isa.F32, Base: 8, ElemStride: 1},
			{Op: isa.Load, Dst: 2, Src1: 0, N: 1},
			{Op: isa.Load, Dst: 3, Src1: 1, N: 1},
			{Op: op, Dst: 2, Src1: 2, Src2: 3, N: 1},
			{Op: isa.Store, Dst: 4, Src1: 2, N: 1},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	return readF32s(t, m, 32, 1)[0]
}

// runImm executes one immediate vector op over a.
func runImm(t *testing.T, op isa.Opcode, a, imm float32) float32 {
	t.Helper()
	m := newMachine(t)
	if err := m.WriteDRAM(0, f32bytes(a)); err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{
		Name: "immop",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 2, Space: isa.DRAM, DType: isa.F32, Base: 8, ElemStride: 1},
			{Op: isa.Load, Dst: 1, Src1: 0, N: 1},
			{Op: op, Dst: 1, Src1: 1, Imm: imm, N: 1},
			{Op: isa.Store, Dst: 2, Src1: 1, N: 1},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	return readF32s(t, m, 32, 1)[0]
}

// runUnary executes one unary vector op over a.
func runUnary(t *testing.T, op isa.Opcode, a float32) float32 {
	t.Helper()
	m := newMachine(t)
	if err := m.WriteDRAM(0, f32bytes(a)); err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{
		Name: "unop",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 2, Space: isa.DRAM, DType: isa.F32, Base: 8, ElemStride: 1},
			{Op: isa.Load, Dst: 1, Src1: 0, N: 1},
			{Op: op, Dst: 1, Src1: 1, N: 1},
			{Op: isa.Store, Dst: 2, Src1: 1, N: 1},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	return readF32s(t, m, 32, 1)[0]
}

func TestAllBinaryOps(t *testing.T) {
	cases := []struct {
		op   isa.Opcode
		a, b float32
		want float32
	}{
		{isa.VAdd, 2, 3, 5},
		{isa.VSub, 2, 3, -1},
		{isa.VMul, 2, 3, 6},
		{isa.VDiv, 7, 2, 3.5},
		{isa.VDiv, 7, 0, 0}, // guarded
		{isa.VMin, 2, 3, 2},
		{isa.VMax, 2, 3, 3},
		{isa.VMod, 7, 3, 1},
		{isa.VMod, 7, 0, 0}, // guarded
	}
	for _, c := range cases {
		if got := runBinary(t, c.op, c.a, c.b); got != c.want {
			t.Errorf("%v(%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestAllImmediateOps(t *testing.T) {
	cases := []struct {
		op     isa.Opcode
		a, imm float32
		want   float32
	}{
		{isa.VAddI, 2, 3, 5},
		{isa.VSubI, 2, 3, -1},
		{isa.VMulI, 2, 3, 6},
		{isa.VDivI, 7, 2, 3.5},
		{isa.VMinI, 2, 3, 2},
		{isa.VMaxI, 2, 3, 3},
	}
	for _, c := range cases {
		if got := runImm(t, c.op, c.a, c.imm); got != c.want {
			t.Errorf("%v(%v, imm %v) = %v, want %v", c.op, c.a, c.imm, got, c.want)
		}
	}
}

func TestAllUnaryOps(t *testing.T) {
	cases := []struct {
		op      isa.Opcode
		a, want float32
	}{
		{isa.VMov, 5, 5},
		{isa.VNeg, 5, -5},
		{isa.VAbs, -5, 5},
		{isa.VSqrt, 9, 3},
		{isa.VSqrt, -1, 0}, // guarded
		{isa.VLog, float32(math.E), 1},
		{isa.VLog, 0, float32(math.Log(1e-30))}, // clamped
		{isa.VExp, 0, 1},
		{isa.VFloor, 2.7, 2},
	}
	for _, c := range cases {
		got := runUnary(t, c.op, c.a)
		if math.Abs(float64(got-c.want)) > 1e-5 {
			t.Errorf("%v(%v) = %v, want %v", c.op, c.a, got, c.want)
		}
	}
}

func TestAllOffChipDTypes(t *testing.T) {
	// Round-trip every ISA dtype through load (widen) + store (narrow).
	m := newMachine(t)
	run := func(dt isa.DT, writeRaw []byte, wantBack []byte) {
		m.ResetDRAM()
		if err := m.WriteDRAM(0, writeRaw); err != nil {
			t.Fatal(err)
		}
		outBase := int64(128) / int64(dt.Size())
		p := &isa.Program{
			Name: "dtypes",
			Instrs: []isa.Instr{
				{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: dt, Base: 0, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 2, Space: isa.DRAM, DType: dt, Base: outBase, ElemStride: 1},
				{Op: isa.Load, Dst: 1, Src1: 0, N: 2},
				{Op: isa.Store, Dst: 2, Src1: 1, N: 2},
				{Op: isa.Halt},
			},
		}
		if _, err := m.Run(p); err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		got, err := m.ReadDRAM(128, int64(len(wantBack)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantBack {
			if got[i] != wantBack[i] {
				t.Fatalf("%v: byte %d = %d, want %d", dt, i, got[i], wantBack[i])
			}
		}
	}
	run(isa.U8, []byte{7, 200}, []byte{7, 200})
	run(isa.I8, []byte{0xFF, 0x7F}, []byte{0xFF, 0x7F}) // -1, 127
	run(isa.I16, []byte{0x34, 0x12, 0xFF, 0xFF}, []byte{0x34, 0x12, 0xFF, 0xFF})
	run(isa.I32, []byte{1, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF}, []byte{1, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF})
	run(isa.F32, f32bytes(1.5, -2.25), f32bytes(1.5, -2.25))
	// F64 round-trips exactly for values representable in f32.
	f64raw := make([]byte, 16)
	for i, v := range []float64{1.5, -2.25} {
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			f64raw[i*8+b] = byte(bits >> (8 * b))
		}
	}
	run(isa.F64, f64raw, f64raw)
}

func TestMachineConfigGetter(t *testing.T) {
	m := newMachine(t)
	if m.Config().Lanes != 128 {
		t.Errorf("Config().Lanes = %d", m.Config().Lanes)
	}
}
