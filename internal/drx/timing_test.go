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

// tripProgram is copyProgram at f32 with the scratch tile reused every
// trip: only the DRAM streams advance, so a loop may run many trips.
func tripProgram(srcBase, dstBase int64, stride, n, trips int32) *isa.Program {
	p := copyProgram(isa.F32, isa.F32, srcBase, dstBase, stride, 1, 1, n, trips)
	p.Instrs[1].Strides = []int32{0}
	return p
}

// withLoopBody returns tripProgram(0, 1<<17, 1, 64, trips) with body in
// place of the loop's load and store; streams s0, s1 and s2 are the
// DRAM source, the scratch tile and the DRAM destination.
func withLoopBody(name string, trips int32, pre []isa.Instr, body ...isa.Instr) *isa.Program {
	p := tripProgram(0, 1<<17, 1, 64, trips)
	in := append([]isa.Instr{}, p.Instrs[:3]...)
	in = append(in, pre...)
	in = append(in, isa.Instr{Op: isa.LoopBegin, N: trips})
	in = append(in, body...)
	in = append(in, isa.Instr{Op: isa.LoopEnd}, isa.Instr{Op: isa.Halt})
	return &isa.Program{Name: name, Instrs: in}
}

// TestTimeChecksMatchRun drives the range and configuration checks of
// every transfer through Run and Time (runBoth compares all three
// machines): each vector operand role and the transposition engine, in
// range and past either end of the scratchpad; bases that wrap; load
// and store spans whose first element is in range and whose last is
// not, which an O(1) check looking at one endpoint only would pass; and
// a stream used before it is configured. The trip cases reach the
// closed-form loops of timing.go: trip counts on either side of the
// collapse, a barrier entered with unequal domains (iteration 0's delta
// is not the others'), a halt in a long loop, spans out of range in the
// last trip only, a stream re-based mid-body that is out of range in
// trip 1 only, and a program whose stream could wrap (walked in full).
func TestTimeChecksMatchRun(t *testing.T) {
	cfg := fastTestConfig()
	top := int64(cfg.ScratchElems())
	dramTop := cfg.DRAMBytes / 4 // in f32 elements
	huge := int64(math.MaxInt64) - 16
	load := isa.Instr{Op: isa.Load, Dst: 1, Src1: 0, N: 64}
	store := isa.Instr{Op: isa.Store, Dst: 2, Src1: 1, N: 64}
	// Compute runs ahead of memory before the loop, so trip 0's barrier
	// joins unequal domains and trip 1's does not.
	ahead := []isa.Instr{{Op: isa.VMulI, Dst: 1, Src1: 1, Imm: 2, N: 16384}}
	// Trip 0 loads 128 elements at scratch 0; every later load uses the
	// re-based tile, whose trip-1 span ends 24 elements past the
	// scratchpad while trip 0's 16-element store and every other trip
	// stay in range.
	rebase := isa.Instr{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32,
		Base: top - 40, ElemStride: 1, Strides: []int32{-64}}
	// An unused stream that mayWrap's bound for 1000 trips puts at
	// spanLimit: the loop is walked in full.
	wide := isa.Instr{Op: isa.CfgStream, Dst: 3, Space: isa.DRAM, DType: isa.F32, Base: spanLimit - 1000, Strides: []int32{1}}
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
		{"trips1_ok", tripProgram(0, 1<<17, 1, 64, 1)},
		{"trips2_ok", tripProgram(0, 1<<17, 1, 64, 2)},
		{"trips3_ok", tripProgram(0, 1<<17, 1, 64, 3)},
		{"trips4_ok", tripProgram(0, 1<<17, 1, 64, 4)},
		{"trips5_ok", tripProgram(0, 1<<17, 1, 64, 5)},
		{"trips1000_ok", tripProgram(0, 1<<17, 1, 64, 1000)},
		{"barrier_unequal_domains_ok", withLoopBody("barrier", 100, ahead,
			load, isa.Instr{Op: isa.Barrier}, isa.Instr{Op: isa.VMulI, Dst: 1, Src1: 1, Imm: 2, N: 64}, store)},
		{"halt_in_long_loop_ok", withLoopBody("halt", 1000, nil, load, isa.Instr{Op: isa.Halt}, store)},
		{"last_trip_dram_past_end", tripProgram(dramTop-64*1000+1, 1<<17, 1, 64, 1000)},
		{"last_trip_dram_below_zero", tripProgram(64*999+62, 1<<17, -1, 64, 1000)},
		{"rebased_trip1_past_end", withLoopBody("rebase", 10, nil,
			isa.Instr{Op: isa.Load, Dst: 1, Src1: 0, N: 128}, rebase, isa.Instr{Op: isa.Store, Dst: 2, Src1: 1, N: 16})},
		{"wrap_risk_base_ok", withLoopBody("wide", 1000, []isa.Instr{wide}, load, store)},
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
		tripProgram(0, 1<<17, 1, 64, 1000), // collapsed
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

// TestTimeCollapseFallbacks pins when Time walks a loop in closed form.
// Skipped trips run no scalar ops, so the count a loop of `sadd r1, r1,
// r2` (r2 = 1) leaves in r1 tells how many trips were walked: 3 of 1000
// on a plain machine, and every one with an OnDMA hook (which must see
// every Dma), with the fast paths off, with a CfgStream whose addresses
// could wrap, or with such a stream left configured by an earlier
// program. The Result is the same every time.
func TestTimeCollapseFallbacks(t *testing.T) {
	const trips = 1000
	cfg := func(id int32, base int64) isa.Instr {
		return isa.Instr{Op: isa.CfgStream, Dst: id, Space: isa.DRAM, DType: isa.F32, Base: base, Strides: []int32{1}}
	}
	prog := func(base int64) *isa.Program {
		return &isa.Program{Name: "sadd", Instrs: []isa.Instr{
			cfg(0, base),
			{Op: isa.SLi, Dst: 2, ImmInt: 1},
			{Op: isa.LoopBegin, N: trips},
			{Op: isa.SAdd, Dst: 1, Src1: 1, Src2: 2},
			{Op: isa.Dma, Dst: 3, N: 8},
			{Op: isa.LoopEnd},
			{Op: isa.Halt},
		}}
	}
	// mayWrap bounds a trip's index by the loop count, so a stream based
	// at wide reaches spanLimit in 1000 trips.
	const wide = spanLimit - trips
	var want Result
	dmas := 0
	for _, tc := range []struct {
		name   string
		setup  func(m *Machine) *isa.Program
		walked int64
	}{
		{"collapsed", func(*Machine) *isa.Program { return prog(0) }, 3},
		{"on_dma", func(m *Machine) *isa.Program {
			m.OnDMA = func(q int32, n int64) {
				if q != 3 || n != 8 {
					t.Errorf("OnDMA(q%d, %d), want q3, 8", q, n)
				}
				dmas++
			}
			return prog(0)
		}, trips},
		{"fast_path_off", func(m *Machine) *isa.Program { m.SetFastPath(false); return prog(0) }, trips},
		{"wrap_risk", func(*Machine) *isa.Program { return prog(wide) }, trips},
		{"inherited_wrap_risk", func(m *Machine) *isa.Program {
			cfgOnly := &isa.Program{Name: "cfg", Instrs: []isa.Instr{cfg(1, wide), {Op: isa.Halt}}}
			if _, err := m.Time(cfgOnly); err != nil {
				t.Fatal(err)
			}
			return prog(0)
		}, trips},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(fastTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Time(tc.setup(m))
			if err != nil {
				t.Fatal(err)
			}
			if got := m.sregs[1]; got != tc.walked {
				t.Errorf("walked %d trips, want %d", got, tc.walked)
			}
			if m.OnDMA != nil && dmas != trips {
				t.Errorf("OnDMA saw %d of %d Dma instructions", dmas, trips)
			}
			if tc.name == "collapsed" {
				want = res
			} else if res != want {
				t.Errorf("Result %+v, want %+v", res, want)
			}
		})
	}
}

// TestScalarSourceRegsRejected checks an out-of-range scalar source
// register fails validation in Run and Time rather than indexing past
// the register file.
func TestScalarSourceRegsRejected(t *testing.T) {
	for _, in := range []isa.Instr{
		{Op: isa.SAdd, Dst: 0, Src1: 99, Src2: 0},
		{Op: isa.SMul, Dst: 0, Src1: 0, Src2: -1},
	} {
		p := &isa.Program{Name: "sreg", Instrs: []isa.Instr{in, {Op: isa.Halt}}}
		m, err := New(fastTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(p); err == nil || !strings.Contains(err.Error(), "scalar reg") {
			t.Errorf("Run(%v) = %v, want a scalar-reg error", in, err)
		}
		if _, err := m.Time(p); err == nil || !strings.Contains(err.Error(), "scalar reg") {
			t.Errorf("Time(%v) = %v, want a scalar-reg error", in, err)
		}
	}
}
