package drx

import (
	"math"
	"strings"
	"testing"

	"dmx/internal/isa"
)

// vectorProgram configures three scratch operand streams (dst, src1,
// src2) and runs one vector instruction of length n under a two-trip
// loop that advances every stream by n elements.
func vectorProgram(op isa.Opcode, n int32, dst, src1, src2 int64, stride int32) *isa.Program {
	cfg := func(id int32, base int64) isa.Instr {
		return isa.Instr{Op: isa.CfgStream, Dst: id, Space: isa.Scratch, DType: isa.F32,
			Base: base, ElemStride: stride, Strides: []int32{n * stride}}
	}
	return &isa.Program{
		Name: "vectest",
		Instrs: []isa.Instr{
			cfg(0, dst), cfg(1, src1), cfg(2, src2),
			{Op: isa.LoopBegin, N: 2},
			{Op: op, Dst: 0, Src1: 1, Src2: 2, N: n, Imm: 1.5},
			{Op: isa.LoopEnd},
			{Op: isa.Halt},
		},
	}
}

// TestTimeChecksMatchRun drives the range and configuration checks of
// every transfer through Run and Time (runBoth compares all three
// machines): each vector operand role and the transposition engine, in
// range and past either end of the scratchpad; bases that wrap; load
// and store spans whose first element is in range and whose last is
// not, which an O(1) check looking at one endpoint only would pass; and
// a stream used before it is configured.
func TestTimeChecksMatchRun(t *testing.T) {
	cfg := fastTestConfig()
	top := int64(cfg.ScratchElems())
	dramTop := cfg.DRAMBytes / 4 // in f32 elements
	huge := int64(math.MaxInt64) - 16
	trans := func(src, dst int64) *isa.Program {
		return &isa.Program{Name: "trans", Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.Scratch, DType: isa.F32, Base: src, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: dst, ElemStride: 1},
			{Op: isa.Trans, Dst: 1, Src1: 0, N: 48, M: 32},
			{Op: isa.Halt},
		}}
	}
	cases := []struct {
		name string
		prog *isa.Program
	}{
		{"binary_ok", vectorProgram(isa.VAdd, 256, 0, 1024, 2048, 1)},
		{"binary_src2_past_end", vectorProgram(isa.VAdd, 256, 0, 1024, top-300, 1)},
		{"imm_dst_past_end", vectorProgram(isa.VAddI, 256, top-400, 0, 0, 1)},
		{"unary_src1_past_end", vectorProgram(isa.VNeg, 256, 0, top-257, 0, 1)},
		{"unary_negative_stride_ok", vectorProgram(isa.VNeg, 64, 4000, 200, 0, -1)},
		{"unary_negative_stride_below_zero", vectorProgram(isa.VNeg, 64, 4000, 10, 0, -1)},
		{"reduce_ok", vectorProgram(isa.VRSum, 512, top-513, 0, 0, 1)},
		{"reduce_dst_past_end", vectorProgram(isa.VRMax, 512, top-512, 0, 0, 1)},
		{"macs_ok", vectorProgram(isa.VMacS, 128, 0, 512, 4096, 1)},
		{"macs_scalar_past_end", vectorProgram(isa.VMacS, 128, 0, 512, top, 1)},
		{"strided_dst_past_end", vectorProgram(isa.VMov, 128, 0, 0, 0, 100)},
		{"dst_base_wraps", vectorProgram(isa.VMov, 64, huge, 0, 0, 1)},
		{"src1_base_wraps", vectorProgram(isa.VRSum, 64, 0, huge, 0, 1)},
		{"trans_ok", trans(0, top-48*32)},
		{"trans_past_end", trans(0, top-48*32+1)},
		{"trans_base_wraps", trans(huge, 0)},
		{"load_dram_tail", copyProgram(isa.F32, isa.F32, dramTop-10, 0, 1, 1, 1, 64, 1)},
		{"store_dram_tail", copyProgram(isa.F32, isa.F32, 0, dramTop-10, 1, 1, 1, 64, 1)},
		{"load_dram_tail_strided", copyProgram(isa.F32, isa.F32, dramTop-100, 0, 3, 1, 1, 64, 1)},
		{"store_dram_negative_stride", copyProgram(isa.F32, isa.F32, 0, 10, 1, -1, 1, 64, 1)},
		{"scratch_tail", copyProgram(isa.F32, isa.F32, 0, 8192, 1, 1, int32(top/63+1), 64, 1)},
		{"unconfigured_stream", &isa.Program{Name: "unconfigured", Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.Load, Dst: 5, Src1: 0, N: 16},
			{Op: isa.Halt},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runBoth(t, cfg, tc.prog, 1<<13)
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Every case is either in range or fails: the name says which.
			_, err = m.Time(tc.prog)
			if wantOK := strings.HasSuffix(tc.name, "_ok"); (err == nil) != wantOK {
				t.Fatalf("Time error = %v, want success %v", err, wantOK)
			}
		})
	}
}

// TestTimeIcacheAdmission checks Time refuses a program that does not
// fit the instruction cache, as Run does.
func TestTimeIcacheAdmission(t *testing.T) {
	cfg := fastTestConfig()
	cfg.ICacheBytes = 16
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := copyProgram(isa.F32, isa.F32, 0, 8192, 1, 1, 1, 64, 2)
	if _, err := m.Run(prog); err == nil {
		t.Fatal("Run admitted an oversized program")
	}
	if _, err := m.Time(prog); err == nil {
		t.Fatal("Time admitted an oversized program")
	}
}

// TestTimeSteadyStateAllocs pins the timing walk: once a program's
// metadata is memoized on a machine, walking it again allocates nothing.
func TestTimeSteadyStateAllocs(t *testing.T) {
	cfg := fastTestConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*isa.Program{
		copyProgram(isa.F32, isa.I8, 0, 8192, 1, 1, 1, 128, 4),
		copyProgram(isa.I16, isa.F64, 0, 8192, 3, 2, 1, 64, 3),
		vectorProgram(isa.VAdd, 256, 0, 1024, 2048, 1),
		vectorProgram(isa.VMacS, 128, 0, 512, 4096, 1),
		vectorProgram(isa.VRSum, 512, 8000, 0, 0, 1),
		{
			Name: "transalloc",
			Instrs: []isa.Instr{
				{Op: isa.CfgStream, Dst: 0, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 4096, ElemStride: 1},
				{Op: isa.Trans, Dst: 1, Src1: 0, N: 32, M: 64},
				{Op: isa.Halt},
			},
		},
	}
	for _, prog := range progs {
		if _, err := m.Time(prog); err != nil { // warm: memoize metadata
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := m.Time(prog); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Time allocates %.1f objects/op, want 0", prog.Name, allocs)
		}
	}
}
