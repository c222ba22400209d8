package drx

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dmx/internal/isa"
)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func f32bytes(vals ...float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

func readF32s(t *testing.T, m *Machine, addr int64, n int) []float32 {
	t.Helper()
	raw, err := m.ReadDRAM(addr, int64(n*4))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

// scaleProgram: out[i] = in[i]*2 + 1 for 8 f32 elements at fixed addresses.
func scaleProgram(inElem, outElem int64) *isa.Program {
	return &isa.Program{
		Name: "scale",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: inElem, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 2, Space: isa.DRAM, DType: isa.F32, Base: outElem, ElemStride: 1},
			{Op: isa.Load, Dst: 1, Src1: 0, N: 8},
			{Op: isa.VMulI, Dst: 1, Src1: 1, Imm: 2, N: 8},
			{Op: isa.VAddI, Dst: 1, Src1: 1, Imm: 1, N: 8},
			{Op: isa.Store, Dst: 2, Src1: 1, N: 8},
			{Op: isa.Halt},
		},
	}
}

func TestRunScaleProgram(t *testing.T) {
	m := newMachine(t)
	in, out := int64(0), int64(32)
	if err := m.WriteDRAM(in, f32bytes(1, 2, 3, 4, 5, 6, 7, 8)); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(scaleProgram(in/4, out/4))
	if err != nil {
		t.Fatal(err)
	}
	got := readF32s(t, m, out, 8)
	for i, v := range got {
		want := float32(i+1)*2 + 1
		if v != want {
			t.Errorf("out[%d] = %v, want %v", i, v, want)
		}
	}
	if res.BytesLoaded != 32 || res.BytesStored != 32 {
		t.Errorf("bytes = %d/%d, want 32/32", res.BytesLoaded, res.BytesStored)
	}
	if res.Cycles() <= 0 {
		t.Error("no cycles accounted")
	}
}

func TestHardwareLoopWithStrides(t *testing.T) {
	// Process 4 rows of 8 f32: out[r][i] = in[r][i] + 10. Streams advance
	// by 8 elements per outer iteration.
	m := newMachine(t)
	in, out := int64(0), int64(4*8*4)
	vals := make([]float32, 32)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := m.WriteDRAM(in, f32bytes(vals...)); err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{
		Name: "rows",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: in / 4, ElemStride: 1, Strides: []int32{8}},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 2, Space: isa.DRAM, DType: isa.F32, Base: out / 4, ElemStride: 1, Strides: []int32{8}},
			{Op: isa.LoopBegin, N: 4},
			{Op: isa.Load, Dst: 1, Src1: 0, N: 8},
			{Op: isa.VAddI, Dst: 1, Src1: 1, Imm: 10, N: 8},
			{Op: isa.Store, Dst: 2, Src1: 1, N: 8},
			{Op: isa.LoopEnd},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	got := readF32s(t, m, out, 32)
	for i, v := range got {
		if v != float32(i)+10 {
			t.Errorf("out[%d] = %v, want %v", i, v, float32(i)+10)
		}
	}
}

func TestDTypeWideningAndSaturation(t *testing.T) {
	// u8 in → i8 out with a +100 offset: 200+100=300 saturates to 127.
	m := newMachine(t)
	in, out := int64(0), int64(16)
	if err := m.WriteDRAM(in, []byte{10, 100, 200, 255}); err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{
		Name: "sat",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.U8, Base: in, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 2, Space: isa.DRAM, DType: isa.I8, Base: out, ElemStride: 1},
			{Op: isa.Load, Dst: 1, Src1: 0, N: 4},
			{Op: isa.VAddI, Dst: 1, Src1: 1, Imm: 100, N: 4},
			{Op: isa.Store, Dst: 2, Src1: 1, N: 4},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	raw, _ := m.ReadDRAM(out, 4)
	want := []int8{110, 127, 127, 127}
	for i, w := range want {
		if int8(raw[i]) != w {
			t.Errorf("out[%d] = %d, want %d", i, int8(raw[i]), w)
		}
	}
}

func TestVectorReduceSum(t *testing.T) {
	m := newMachine(t)
	in, out := int64(0), int64(16*4)
	vals := make([]float32, 16)
	var want float32
	for i := range vals {
		vals[i] = float32(i + 1)
		want += vals[i]
	}
	if err := m.WriteDRAM(in, f32bytes(vals...)); err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{
		Name: "rsum",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: in / 4, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 2, Space: isa.Scratch, DType: isa.F32, Base: 100, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 3, Space: isa.DRAM, DType: isa.F32, Base: out / 4, ElemStride: 1},
			{Op: isa.Load, Dst: 1, Src1: 0, N: 16},
			{Op: isa.VRSum, Dst: 2, Src1: 1, N: 16},
			{Op: isa.Store, Dst: 3, Src1: 2, N: 1},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := readF32s(t, m, out, 1)[0]; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestTranspositionEngine(t *testing.T) {
	// Load a 2x3 tile, transpose to 3x2, store.
	m := newMachine(t)
	in, out := int64(0), int64(32)
	if err := m.WriteDRAM(in, f32bytes(1, 2, 3, 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{
		Name: "trans",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: in / 4, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 2, Space: isa.Scratch, DType: isa.F32, Base: 64, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 3, Space: isa.DRAM, DType: isa.F32, Base: out / 4, ElemStride: 1},
			{Op: isa.Load, Dst: 1, Src1: 0, N: 6},
			{Op: isa.Trans, Dst: 2, Src1: 1, N: 2, M: 3},
			{Op: isa.Store, Dst: 3, Src1: 2, N: 6},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	got := readF32s(t, m, out, 6)
	want := []float32{1, 4, 2, 5, 3, 6}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, got[i], w)
		}
	}
}

func TestStridedLoadComplexComponents(t *testing.T) {
	// complex64 data = interleaved (re, im) f32 pairs; elemStride 2 reads
	// one component. |z|² for z = (3+4i) must come out 25.
	m := newMachine(t)
	in, out := int64(0), int64(16)
	if err := m.WriteDRAM(in, f32bytes(3, 4)); err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{
		Name: "mag2",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: in / 4, ElemStride: 2},
			{Op: isa.CfgStream, Dst: 1, Space: isa.DRAM, DType: isa.F32, Base: in/4 + 1, ElemStride: 2},
			{Op: isa.CfgStream, Dst: 2, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 3, Space: isa.Scratch, DType: isa.F32, Base: 32, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 4, Space: isa.DRAM, DType: isa.F32, Base: out / 4, ElemStride: 1},
			{Op: isa.Load, Dst: 2, Src1: 0, N: 1},
			{Op: isa.Load, Dst: 3, Src1: 1, N: 1},
			{Op: isa.VMul, Dst: 2, Src1: 2, Src2: 2, N: 1},
			{Op: isa.VMul, Dst: 3, Src1: 3, Src2: 3, N: 1},
			{Op: isa.VAdd, Dst: 2, Src1: 2, Src2: 3, N: 1},
			{Op: isa.Store, Dst: 4, Src1: 2, N: 1},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := readF32s(t, m, out, 1)[0]; got != 25 {
		t.Errorf("|3+4i|² = %v, want 25", got)
	}
}

func TestVMacSAccumulates(t *testing.T) {
	m := newMachine(t)
	p := &isa.Program{
		Name: "macs",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},  // acc
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 10, ElemStride: 1}, // vec
			{Op: isa.CfgStream, Dst: 2, Space: isa.Scratch, DType: isa.F32, Base: 20, ElemStride: 1}, // scalar
			{Op: isa.CfgStream, Dst: 3, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 4, Space: isa.DRAM, DType: isa.F32, Base: 4, ElemStride: 1},
			{Op: isa.Load, Dst: 1, Src1: 3, N: 4},
			{Op: isa.Load, Dst: 2, Src1: 4, N: 1},
			{Op: isa.VMacS, Dst: 0, Src1: 1, Src2: 2, N: 4},
			{Op: isa.VMacS, Dst: 0, Src1: 1, Src2: 2, N: 4},
			{Op: isa.CfgStream, Dst: 5, Space: isa.DRAM, DType: isa.F32, Base: 16, ElemStride: 1},
			{Op: isa.Store, Dst: 5, Src1: 0, N: 4},
			{Op: isa.Halt},
		},
	}
	if err := m.WriteDRAM(0, f32bytes(1, 2, 3, 4, 10)); err != nil {
		t.Fatal(err)
	}
	// Note stream 4 base is element 4 of the same region (value 10).
	p.Instrs[4].Base = 4
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	got := readF32s(t, m, 64, 4)
	for i, w := range []float32{20, 40, 60, 80} {
		if got[i] != w {
			t.Errorf("acc[%d] = %v, want %v", i, got[i], w)
		}
	}
}

func TestScalarOps(t *testing.T) {
	m := newMachine(t)
	p := &isa.Program{
		Name: "scalar",
		Instrs: []isa.Instr{
			{Op: isa.SLi, Dst: 1, ImmInt: 6},
			{Op: isa.SLi, Dst: 2, ImmInt: 7},
			{Op: isa.SMul, Dst: 3, Src1: 1, Src2: 2},
			{Op: isa.SAdd, Dst: 4, Src1: 3, Src2: 1},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if m.sregs[3] != 42 || m.sregs[4] != 48 {
		t.Errorf("sregs = %d, %d; want 42, 48", m.sregs[3], m.sregs[4])
	}
}

func TestDMAHook(t *testing.T) {
	m := newMachine(t)
	var gotQ int32
	var gotN int64
	m.OnDMA = func(q int32, n int64) { gotQ, gotN = q, n }
	p := &isa.Program{
		Name: "dma",
		Instrs: []isa.Instr{
			{Op: isa.Dma, Dst: 7, N: 4096},
			{Op: isa.Halt},
		},
	}
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if gotQ != 7 || gotN != 4096 {
		t.Errorf("DMA hook got q%d/%d, want q7/4096", gotQ, gotN)
	}
	if res.DMABytes != 4096 {
		t.Errorf("DMABytes = %d", res.DMABytes)
	}
}

func TestLaneScalingReducesComputeCycles(t *testing.T) {
	run := func(lanes int) int64 {
		cfg := DefaultConfig().WithLanes(lanes)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := &isa.Program{
			Name: "wide",
			Instrs: []isa.Instr{
				{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
				{Op: isa.Load, Dst: 1, Src1: 0, N: 1024},
				{Op: isa.VMulI, Dst: 1, Src1: 1, Imm: 3, N: 1024},
				{Op: isa.VAddI, Dst: 1, Src1: 1, Imm: 3, N: 1024},
				{Op: isa.VSqrt, Dst: 1, Src1: 1, N: 1024},
				{Op: isa.Halt},
			},
		}
		res, err := m.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.ComputeCycles
	}
	c32, c128 := run(32), run(128)
	if c128 >= c32 {
		t.Errorf("128 lanes (%d cycles) not faster than 32 lanes (%d)", c128, c32)
	}
	if c32 != 4*c128 {
		t.Errorf("compute cycles %d vs %d: want exact 4x scaling", c32, c128)
	}
}

func TestStridedAccessCostsMoreMemCycles(t *testing.T) {
	run := func(stride int32) int64 {
		m := newMachine(t)
		p := &isa.Program{
			Name: "stride",
			Instrs: []isa.Instr{
				{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: stride},
				{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
				{Op: isa.Load, Dst: 1, Src1: 0, N: 1024},
				{Op: isa.Halt},
			},
		}
		res, err := m.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.MemCycles
	}
	if unit, wide := run(1), run(16); wide <= unit {
		t.Errorf("stride-16 load (%d cycles) not slower than unit stride (%d)", wide, unit)
	}
}

func TestErrorsSurfaceWithContext(t *testing.T) {
	m := newMachine(t)
	cases := []struct {
		name   string
		instrs []isa.Instr
		substr string
	}{
		{
			"unconfigured stream",
			[]isa.Instr{{Op: isa.VAdd, Dst: 0, Src1: 1, Src2: 2, N: 4}, {Op: isa.Halt}},
			"before cfgstream",
		},
		{
			"load from scratch space",
			[]isa.Instr{
				{Op: isa.CfgStream, Dst: 0, Space: isa.Scratch, DType: isa.F32, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, ElemStride: 1},
				{Op: isa.Load, Dst: 1, Src1: 0, N: 4},
				{Op: isa.Halt},
			},
			"dram→scratch",
		},
		{
			"scratch overflow",
			[]isa.Instr{
				{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 1 << 40, ElemStride: 1},
				{Op: isa.Load, Dst: 1, Src1: 0, N: 4},
				{Op: isa.Halt},
			},
			"out of range",
		},
	}
	for _, c := range cases {
		_, err := m.Run(&isa.Program{Name: c.name, Instrs: c.instrs})
		if err == nil || !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.substr, err)
		}
	}
}

func TestICacheLimitEnforced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ICacheBytes = 128
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{Name: "big"}
	for i := 0; i < 100; i++ {
		p.Instrs = append(p.Instrs, isa.Instr{Op: isa.Nop})
	}
	p.Instrs = append(p.Instrs, isa.Instr{Op: isa.Halt})
	if _, err := m.Run(p); err == nil || !strings.Contains(err.Error(), "icache") {
		t.Fatalf("want icache error, got %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Lanes: 0, ScratchBytes: 65536, ClockHz: 1e9, DRAMBytesPerSec: 25e9, DRAMBytes: 1 << 30},
		{Lanes: 96, ScratchBytes: 65536, ClockHz: 1e9, DRAMBytesPerSec: 25e9, DRAMBytes: 1 << 30}, // not power of two
		{Lanes: 128, ScratchBytes: 100, ClockHz: 1e9, DRAMBytesPerSec: 25e9, DRAMBytes: 1 << 30},
		{Lanes: 128, ScratchBytes: 65536, ClockHz: 0, DRAMBytesPerSec: 25e9, DRAMBytes: 1 << 30},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := FPGAConfig().Validate(); err != nil {
		t.Errorf("FPGA config invalid: %v", err)
	}
}

// Property: the machine's VAdd agrees with float32 addition for arbitrary
// operands placed in DRAM.
func TestVAddMatchesFloat32Property(t *testing.T) {
	m := newMachine(t)
	prop := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if err := m.WriteDRAM(0, f32bytes(a, b)); err != nil {
			return false
		}
		p := &isa.Program{
			Name: "prop",
			Instrs: []isa.Instr{
				{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 1, Space: isa.DRAM, DType: isa.F32, Base: 1, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 2, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 3, Space: isa.Scratch, DType: isa.F32, Base: 8, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 4, Space: isa.DRAM, DType: isa.F32, Base: 16, ElemStride: 1},
				{Op: isa.Load, Dst: 2, Src1: 0, N: 1},
				{Op: isa.Load, Dst: 3, Src1: 1, N: 1},
				{Op: isa.VAdd, Dst: 2, Src1: 2, Src2: 3, N: 1},
				{Op: isa.Store, Dst: 4, Src1: 2, N: 1},
				{Op: isa.Halt},
			},
		}
		if _, err := m.Run(p); err != nil {
			return false
		}
		raw, _ := m.ReadDRAM(64, 4)
		got := math.Float32frombits(binary.LittleEndian.Uint32(raw))
		return got == a+b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
