package drx

import (
	"testing"

	"dmx/internal/isa"
)

func TestBarrierJoinsPipelines(t *testing.T) {
	// A memory-heavy phase then a compute-heavy phase: without the
	// barrier the model would overlap them fully; with it, the total is
	// the sum of the two phases (plus the drain cost).
	m := newMachine(t)
	mk := func(withBarrier bool) Result {
		in := []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.Load, Dst: 1, Src1: 0, N: 8192}, // memory phase
		}
		if withBarrier {
			in = append(in, isa.Instr{Op: isa.Barrier})
		}
		for i := 0; i < 64; i++ { // compute phase
			in = append(in, isa.Instr{Op: isa.VMulI, Dst: 1, Src1: 1, Imm: 1.5, N: 8192})
		}
		in = append(in, isa.Instr{Op: isa.Halt})
		res, err := m.Run(&isa.Program{Name: "barrier", Instrs: in})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := mk(true)
	without := mk(false)
	if with.Cycles() <= without.Cycles() {
		t.Errorf("barrier (%d cycles) did not serialize phases vs overlap (%d)",
			with.Cycles(), without.Cycles())
	}
}

func TestFPGAConfigSlowsWallClock(t *testing.T) {
	prog := &isa.Program{
		Name: "clk",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.VMulI, Dst: 0, Src1: 0, Imm: 2, N: 4096},
			{Op: isa.Halt},
		},
	}
	asic, _ := New(DefaultConfig())
	fpga, _ := New(FPGAConfig())
	ra, err := asic.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fpga.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Same compute cycles; the 250 MHz prototype is 4x slower in time.
	if ra.ComputeCycles != rf.ComputeCycles {
		t.Errorf("cycle counts differ across clocks: %d vs %d", ra.ComputeCycles, rf.ComputeCycles)
	}
	ta := ra.Seconds(DefaultConfig().ClockHz)
	tf := rf.Seconds(FPGAConfig().ClockHz)
	if r := tf / ta; r < 3.9 || r > 4.1 {
		t.Errorf("FPGA/ASIC time ratio %.2f, want ~4", r)
	}
}

func TestResetDRAMZeroes(t *testing.T) {
	m := newMachine(t)
	const addr = 0
	if err := m.WriteDRAM(addr, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	m.ResetDRAM()
	raw, err := m.ReadDRAM(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0 || raw[1] != 0 || raw[2] != 0 {
		t.Error("ResetDRAM left stale bytes")
	}
}

func TestDRAMBoundsChecked(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAMBytes = 1024
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteDRAM(1020, []byte{1, 2, 3, 4, 5}); err == nil {
		t.Error("out-of-bounds write accepted")
	}
	if _, err := m.ReadDRAM(-1, 4); err == nil {
		t.Error("negative read accepted")
	}
	// Program store past DRAM must fail cleanly, not panic.
	p := &isa.Program{
		Name: "oob",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.DRAM, DType: isa.F32, Base: 1 << 40, ElemStride: 1},
			{Op: isa.Store, Dst: 1, Src1: 0, N: 4},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err == nil {
		t.Error("store past DRAM accepted")
	}
}

func TestHaltInsideLoopStopsExecution(t *testing.T) {
	m := newMachine(t)
	p := &isa.Program{
		Name: "early-halt",
		Instrs: []isa.Instr{
			{Op: isa.LoopBegin, N: 1000},
			{Op: isa.Nop},
			{Op: isa.Halt},
			{Op: isa.LoopEnd},
			{Op: isa.Halt},
		},
	}
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// One loop config + one nop + one halt: the loop must not iterate on.
	if res.Instrs > 5 {
		t.Errorf("halt did not stop the repeater: %d dynamic instructions", res.Instrs)
	}
}

func TestVRMaxNegativeValues(t *testing.T) {
	m := newMachine(t)
	if err := m.WriteDRAM(0, f32bytes(-5, -2, -9, -3)); err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{
		Name: "rmax",
		Instrs: []isa.Instr{
			{Op: isa.CfgStream, Dst: 0, Space: isa.DRAM, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 1, Space: isa.Scratch, DType: isa.F32, Base: 0, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 2, Space: isa.Scratch, DType: isa.F32, Base: 16, ElemStride: 1},
			{Op: isa.CfgStream, Dst: 3, Space: isa.DRAM, DType: isa.F32, Base: 8, ElemStride: 1},
			{Op: isa.Load, Dst: 1, Src1: 0, N: 4},
			{Op: isa.VRMax, Dst: 2, Src1: 1, N: 4},
			{Op: isa.Store, Dst: 3, Src1: 2, N: 1},
			{Op: isa.Halt},
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := readF32s(t, m, 32, 1)[0]; got != -2 {
		t.Errorf("max of negatives = %v, want -2", got)
	}
}
