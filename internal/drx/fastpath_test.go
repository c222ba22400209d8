package drx

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmx/internal/isa"
)

// fastTestConfig is a small machine so out-of-range fallbacks are easy
// to provoke without multi-gigabyte addresses.
func fastTestConfig() Config {
	cfg := DefaultConfig()
	cfg.DRAMBytes = 1 << 20
	return cfg
}

// copyProgram builds: loop reps { load scratch←dram[src]; store
// dram[dst]←scratch }, with each iteration advancing all streams by n
// elements. srcDT/dstDT may differ, exercising widening and narrowing.
func copyProgram(srcDT, dstDT isa.DT, srcBase, dstBase int64, srcStride, dstStride, scrStride int32, n, reps int32) *isa.Program {
	return &isa.Program{
		Name: "copytest",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: srcDT,
				Base: srcBase, ElemStride: srcStride, Strides: []int32{n * srcStride}},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32,
				Base: 0, ElemStride: scrStride, Strides: []int32{n * scrStride}},
			{Op: isa.CfgStream, Dst: 2, Space: isa.DRAM, DType: dstDT,
				Base: dstBase, ElemStride: dstStride, Strides: []int32{n * dstStride}},
			{Op: isa.LoopBegin, N: reps},
			{Op: isa.Load, Dst: 1, Src1: 0, N: n},
			{Op: isa.Store, Dst: 2, Src1: 1, N: n},
			{Op: isa.LoopEnd},
			{Op: isa.Halt},
		},
	}
}

// fillDRAM writes a deterministic byte pattern covering every bit
// pattern an element can take (including float values far outside the
// narrow integer ranges, so narrowing saturation is exercised).
func fillDRAM(t testing.TB, m *Machine, nbytes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	data := make([]byte, nbytes)
	// Mostly moderate float32 values, interleaved with raw random bytes.
	for i := 0; i+4 <= len(data); i += 4 {
		if i%16 == 0 {
			rng.Read(data[i : i+4])
			continue
		}
		v := float32(rng.Float64()*2e5 - 1e5)
		bits := math.Float32bits(v)
		data[i], data[i+1], data[i+2], data[i+3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
	}
	// Raw random bytes can encode NaN float32/float64 patterns whose
	// integer conversion is platform-defined; both paths run the same
	// code on the same platform, but keep the corpus NaN-free so the
	// test asserts portable semantics.
	scrubNaN(data)
	if err := m.WriteDRAM(0, data); err != nil {
		t.Fatal(err)
	}
}

func scrubNaN(data []byte) {
	for i := 0; i+4 <= len(data); i += 4 {
		u := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
		if f := math.Float32frombits(u); f != f {
			data[i+3] = 0 // clear exponent bits → finite
		}
	}
	for i := 0; i+8 <= len(data); i += 8 {
		var u uint64
		for b := 0; b < 8; b++ {
			u |= uint64(data[i+b]) << (8 * b)
		}
		if f := math.Float64frombits(u); f != f {
			data[i+7] = 0
		}
	}
}

// runBoth executes prog on a fast-path machine and an element-interpreter
// machine over identical DRAM images and requires byte- and
// Result-identical outcomes (errors included). It also walks prog with
// Time on a third machine whose DRAM was never written, which must fail
// exactly when Run does and otherwise return the same Result.
func runBoth(t *testing.T, cfg Config, prog *isa.Program, seedBytes int) {
	t.Helper()
	tm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	timed, timeErr := tm.Time(prog)
	machines := [2]*Machine{}
	results := [2]Result{}
	errs := [2]error{}
	for i := range machines {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFastPath(i == 0)
		fillDRAM(t, m, seedBytes)
		machines[i] = m
		results[i], errs[i] = m.Run(prog)
	}
	if (errs[0] == nil) != (errs[1] == nil) {
		t.Fatalf("error divergence: fast=%v interp=%v", errs[0], errs[1])
	}
	if (timeErr == nil) != (errs[1] == nil) {
		t.Fatalf("error divergence: time=%v interp=%v", timeErr, errs[1])
	}
	if errs[0] != nil {
		if errs[0].Error() != errs[1].Error() {
			t.Fatalf("error text divergence:\nfast:   %v\ninterp: %v", errs[0], errs[1])
		}
		return
	}
	if results[0] != results[1] {
		t.Fatalf("Result divergence:\nfast:   %+v\ninterp: %+v", results[0], results[1])
	}
	if timed != results[1] {
		t.Fatalf("Result divergence:\ntime:   %+v\ninterp: %+v", timed, results[1])
	}
	a, err := machines[0].ReadDRAM(0, cfg.DRAMBytes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := machines[1].ReadDRAM(0, cfg.DRAMBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("DRAM divergence at byte %d: fast=%#x interp=%#x", i, a[i], b[i])
			}
		}
	}
}

func TestFastPathBitIdenticalAcrossDTypes(t *testing.T) {
	cfg := fastTestConfig()
	allDTs := []isa.DT{isa.U8, isa.I8, isa.I16, isa.I32, isa.F32, isa.F64}
	for _, src := range allDTs {
		for _, dst := range allDTs {
			t.Run(fmt.Sprintf("%v_to_%v", src, dst), func(t *testing.T) {
				runBoth(t, cfg, copyProgram(src, dst, 0, 8192, 1, 1, 1, 96, 3), 1<<14)
			})
		}
	}
}

func TestFastPathFallbacksBitIdentical(t *testing.T) {
	cfg := fastTestConfig()
	cases := []struct {
		name string
		prog *isa.Program
	}{
		// Non-unit strides force the element interpreter on each side.
		{"strided_src", copyProgram(isa.F32, isa.F32, 0, 8192, 2, 1, 1, 64, 3)},
		{"strided_dst", copyProgram(isa.F32, isa.I16, 0, 8192, 1, 3, 1, 64, 3)},
		{"strided_scratch", copyProgram(isa.I16, isa.F32, 0, 8192, 1, 1, 2, 64, 3)},
		{"negative_stride", copyProgram(isa.F32, isa.F32, 512, 8192, -1, 1, 1, 64, 2)},
		{"zero_stride", copyProgram(isa.U8, isa.U8, 0, 8192, 0, 1, 1, 64, 2)},
		// Out-of-range transfers must error identically. The source read
		// runs off the end of DRAM; the dst store runs off the scratchpad.
		{"dram_oob", copyProgram(isa.F64, isa.F32, cfg.DRAMBytes/8-16, 0, 1, 1, 1, 64, 2)},
		{"negative_addr", copyProgram(isa.F32, isa.F32, 256, 8192, -8, 1, 1, 64, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runBoth(t, cfg, tc.prog, 1<<13) })
	}
}

// TestFastPathOverflowAddrsIdentical drives stream bases large enough
// that the span byte-offset products wrap negative. isa.Validate admits
// any non-negative base, so these programs must fall back and error
// exactly like the element interpreter instead of panicking on a
// wrapped slice bound.
func TestFastPathOverflowAddrsIdentical(t *testing.T) {
	cfg := fastTestConfig()
	// 3<<60 elements × 4 bytes wraps to a negative DRAM byte offset.
	ovf := int64(3) << 60
	// A scratch base this close to MaxInt64 wraps base+n negative.
	huge := int64(math.MaxInt64) - 16
	scratchProg := func(op isa.Instr) *isa.Program {
		return &isa.Program{
			Name: "scratchovf",
			Instrs: []isa.Instr{
				{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
				{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: huge, ElemStride: 1},
				op,
				{Op: isa.Halt},
			},
		}
	}
	cases := []struct {
		name string
		prog *isa.Program
	}{
		{"dram_src_overflow", copyProgram(isa.F32, isa.F32, ovf, 8192, 1, 1, 1, 64, 2)},
		{"dram_dst_overflow", copyProgram(isa.F32, isa.F32, 0, ovf, 1, 1, 1, 64, 2)},
		{"scratch_load_overflow", scratchProg(isa.Instr{Op: isa.Load, Dst: 1, Src1: 0, N: 64})},
		{"scratch_store_overflow", scratchProg(isa.Instr{Op: isa.Store, Dst: 0, Src1: 1, N: 64})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runBoth(t, cfg, tc.prog, 1<<13) })
	}
}

func TestFastPathScratchOOBIdentical(t *testing.T) {
	cfg := fastTestConfig()
	// Scratch walk exceeds the scratchpad after a few iterations: the
	// load's scratch index goes out of range mid-program.
	n := int32(1024)
	reps := int32(cfg.ScratchElems())/n + 2
	runBoth(t, cfg, copyProgram(isa.F32, isa.F32, 0, 1<<16, 1, 1, 1, n, reps), 1<<13)
}

func TestTransposeBitIdentical(t *testing.T) {
	cfg := fastTestConfig()
	prog := &isa.Program{
		Name: "transtest",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 2, Space: isa.Scratch, DType: isa.F32, Base: 4096, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 3, Space: isa.DRAM, DType: isa.F32, Base: 8192, ElemStride: 1},
			{Op: isa.Load, Dst: 1, Src1: 0, N: 24 * 56},
			{Op: isa.Trans, Dst: 2, Src1: 1, N: 24, M: 56},
			{Op: isa.Store, Dst: 3, Src1: 2, N: 24 * 56},
			{Op: isa.Halt},
		},
	}
	runBoth(t, cfg, prog, 1<<13)
}

// TestRunSteadyStateAllocs pins the hot loop: once a program has run
// once on a machine (metadata memoized, DRAM grown, transpose tile
// sized), re-running it must not allocate at all.
func TestRunSteadyStateAllocs(t *testing.T) {
	cfg := fastTestConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillDRAM(t, m, 1<<14)
	progs := []*isa.Program{
		copyProgram(isa.F32, isa.I8, 0, 8192, 1, 1, 1, 128, 4),
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
		if _, err := m.Run(prog); err != nil { // warm: memoize + grow
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := m.Run(prog); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Run allocates %.1f objects/op, want 0", prog.Name, allocs)
		}
	}
}

// TestResetDRAMDirtyWatermark checks the reset actually clears every
// written byte, both for bulk WriteDRAM and element/fast-path stores.
func TestResetDRAMDirtyWatermark(t *testing.T) {
	cfg := fastTestConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteDRAM(300_000, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	fillDRAM(t, m, 1<<12)
	if _, err := m.Run(copyProgram(isa.F32, isa.F32, 0, 100_000, 1, 1, 1, 64, 2)); err != nil {
		t.Fatal(err)
	}
	m.ResetDRAM()
	got, err := m.ReadDRAM(0, cfg.DRAMBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d nonzero (%#x) after ResetDRAM", i, b)
		}
	}
	// The watermark must rebuild after a reset: write again, reset again.
	if err := m.WriteDRAM(128, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	m.ResetDRAM()
	got, err = m.ReadDRAM(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("second ResetDRAM left a written byte")
	}
}
