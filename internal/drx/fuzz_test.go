package drx

import (
	"bytes"
	"math"
	"testing"

	"dmx/internal/isa"
)

// FuzzFastPathMatchesInterpreter is the machine-level differential net
// under the bulk operand fast paths and the timing-only walk: arbitrary
// load/store programs — random dtypes, strides (unit, strided, negative,
// zero), bases, span lengths, trip counts up to 64 — must behave
// identically with the fast paths on and off. "Identically" is total:
// same error (text included) or, on success, the same Result accounting
// and byte-for-byte the same DRAM image. Time, which moves no data and
// walks loops of more than three trips in closed form, must fail
// exactly when Run does and otherwise return the same Result. The
// machine is deliberately small (16 KB DRAM, 4 KB scratch) so the fuzzer
// reaches the out-of-range fallbacks easily.
//
// shapeSel varies the loop nest the closed form must see through: bit
// 0 wraps the loop in an outer loop of (shapeSel>>3)%6+1 trips, bit 1
// puts a Barrier after the load, and bit 2 re-bases the scratch stream
// between the load and the store, to (shapeSel>>3)·n, so trip 0's load
// and every later one see different bases.
//
// Base values below 2^32 fold into the small DRAM so most programs touch
// real memory; larger values are used as they are, reaching the wrapping
// address arithmetic of TestFastPathOverflowAddrsIdentical.
func FuzzFastPathMatchesInterpreter(f *testing.F) {
	// Unit-stride in-bounds spans of every dtype pair (fast path fires).
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(63), uint8(3), uint8(0), uint64(0), uint64(512), uint64(0), []byte("seed"))
	f.Add(uint8(0), uint8(5), int8(1), int8(1), int8(1), uint8(32), uint8(2), uint8(0), uint64(64), uint64(1024), uint64(0), []byte{1, 2, 3})
	f.Add(uint8(2), uint8(1), int8(1), int8(1), int8(1), uint8(16), uint8(4), uint8(0), uint64(128), uint64(900), uint64(0), []byte{0xff, 0x80})
	// Strided / negative / zero strides (element fallback).
	f.Add(uint8(4), uint8(4), int8(2), int8(1), int8(1), uint8(40), uint8(2), uint8(0), uint64(0), uint64(700), uint64(0), []byte("s"))
	f.Add(uint8(3), uint8(3), int8(-1), int8(1), int8(1), uint8(24), uint8(2), uint8(0), uint64(800), uint64(1200), uint64(0), []byte("n"))
	f.Add(uint8(5), uint8(0), int8(0), int8(3), int8(-2), uint8(20), uint8(3), uint8(0), uint64(40), uint64(1500), uint64(0), []byte("z"))
	// Bases near the end of the small DRAM (out-of-range errors).
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(63), uint8(4), uint8(0), uint64(4000), uint64(4050), uint64(0), []byte("e"))
	// TestFastPathOverflowAddrsIdentical's programs: DRAM bases whose
	// byte offsets wrap negative, and a scratch base that wraps base+n.
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(63), uint8(1), uint8(0), uint64(3)<<60, uint64(2048), uint64(0), []byte("o"))
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(63), uint8(1), uint8(0), uint64(0), uint64(3)<<60, uint64(0), []byte("o"))
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(63), uint8(0), uint8(0), uint64(0), uint64(2048), uint64(math.MaxInt64-16), []byte("o"))
	// Only the last trip reads past the end of DRAM (an f32 source of
	// 4096 elements read 64 a trip from element 1) or below element 0:
	// a flat loop of 64 trips; a 4 × 16 nest; barriers and a re-based
	// scratch tile.
	f.Add(uint8(4), uint8(0), int8(1), int8(1), int8(0), uint8(63), uint8(63), uint8(0), uint64(1), uint64(8192), uint64(0), []byte("l"))
	f.Add(uint8(4), uint8(0), int8(1), int8(1), int8(0), uint8(63), uint8(15), uint8(1|3<<3), uint64(1), uint64(8192), uint64(0), []byte("l"))
	f.Add(uint8(4), uint8(0), int8(1), int8(1), int8(0), uint8(63), uint8(63), uint8(6|2<<3), uint64(1), uint64(8192), uint64(0), []byte("l"))
	f.Add(uint8(4), uint8(0), int8(-1), int8(1), int8(0), uint8(63), uint8(63), uint8(2), uint64(4094), uint64(8192), uint64(0), []byte("l"))
	// Every shape in range.
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(7), uint8(9), uint8(7|4<<3), uint64(0), uint64(2048), uint64(0), []byte("a"))

	f.Fuzz(func(t *testing.T, srcSel, dstSel uint8, srcStride, dstStride, scrStride int8, nSel, repSel, shapeSel uint8, srcBase, dstBase, scrBase uint64, data []byte) {
		dts := []isa.DT{isa.U8, isa.I8, isa.I16, isa.I32, isa.F32, isa.F64}
		srcDT := dts[int(srcSel)%len(dts)]
		dstDT := dts[int(dstSel)%len(dts)]
		n := int32(nSel%64) + 1
		reps := int32(repSel%64) + 1
		base := func(v uint64) int64 {
			if v < 1<<32 {
				return int64(v % 4096)
			}
			return int64(v)
		}

		cfg := DefaultConfig()
		cfg.DRAMBytes = 16 << 10
		cfg.ScratchBytes = 4 << 10

		prog := copyProgram(srcDT, dstDT, base(srcBase), base(dstBase),
			int32(srcStride), int32(dstStride), int32(scrStride), n, reps)
		prog.Instrs[1].Base = base(scrBase)
		prog.Instrs = shapeLoops(prog.Instrs, shapeSel, reps, n)

		// Deterministic DRAM image derived from the fuzz payload. NaN bit
		// patterns round-trip identically through both paths but convert
		// to integers platform-dependently, so scrub them (see
		// fastpath_test.go).
		image := make([]byte, 8<<10)
		if len(data) == 0 {
			data = []byte{0x5a}
		}
		for i := range image {
			image[i] = data[i%len(data)] ^ byte(i*131>>3)
		}
		scrubNaN(image)

		var results [2]Result
		var errs [2]error
		var dram [2][]byte
		for i := 0; i < 2; i++ {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.SetFastPath(i == 0)
			if err := m.WriteDRAM(0, image); err != nil {
				t.Fatal(err)
			}
			results[i], errs[i] = m.Run(prog)
			if dram[i], err = m.ReadDRAM(0, cfg.DRAMBytes); err != nil {
				t.Fatal(err)
			}
		}
		tm, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		timed, timeErr := tm.Time(prog)
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("error divergence: fast=%v interp=%v", errs[0], errs[1])
		}
		if (timeErr == nil) != (errs[1] == nil) {
			t.Fatalf("error divergence: time=%v interp=%v", timeErr, errs[1])
		}
		if errs[0] != nil && errs[0].Error() != errs[1].Error() {
			t.Fatalf("error text divergence:\nfast:   %v\ninterp: %v", errs[0], errs[1])
		}
		if errs[0] == nil && results[0] != results[1] {
			t.Fatalf("Result divergence:\nfast:   %+v\ninterp: %+v", results[0], results[1])
		}
		if errs[1] == nil && timed != results[1] {
			t.Fatalf("Result divergence:\ntime:   %+v\ninterp: %+v", timed, results[1])
		}
		if !bytes.Equal(dram[0], dram[1]) {
			for i := range dram[0] {
				if dram[0][i] != dram[1][i] {
					t.Fatalf("DRAM divergence at byte %d: fast=%#x interp=%#x", i, dram[0][i], dram[1][i])
				}
			}
		}
	})
}

// shapeLoops rebuilds copyProgram's instructions in the loop shape
// shapeSel selects (see FuzzFastPathMatchesInterpreter).
func shapeLoops(in []isa.Instr, shapeSel uint8, reps, n int32) []isa.Instr {
	cfgs := append([]isa.Instr{}, in[:3]...)
	if shapeSel&1 != 0 {
		// The outer level advances each stream past a whole inner loop.
		for i := range cfgs {
			s := cfgs[i].Strides[0]
			cfgs[i].Strides = []int32{reps * s, s}
		}
	}
	body := []isa.Instr{in[4]}
	if shapeSel&2 != 0 {
		body = append(body, isa.Instr{Op: isa.Barrier})
	}
	if shapeSel&4 != 0 {
		rebase := cfgs[1]
		rebase.Base = int64(shapeSel>>3) * int64(n)
		body = append(body, rebase)
	}
	body = append(body, in[5])
	out := append(cfgs, in[3])
	out = append(out, body...)
	out = append(out, isa.Instr{Op: isa.LoopEnd})
	if shapeSel&1 != 0 {
		outer := isa.Instr{Op: isa.LoopBegin, N: int32(shapeSel>>3)%6 + 1}
		out = append(append(out[:3:3], outer), out[3:]...)
		out = append(out, isa.Instr{Op: isa.LoopEnd})
	}
	return append(out, isa.Instr{Op: isa.Halt})
}
