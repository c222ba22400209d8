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
// zero), bases, span lengths, repeat counts — must behave identically
// with the fast paths on and off. "Identically" is total: same error
// (text included) or, on success, the same Result accounting and
// byte-for-byte the same DRAM image. Time, which moves no data, must
// fail exactly when Run does and otherwise return the same Result. The
// machine is deliberately small (16 KB DRAM, 4 KB scratch) so the fuzzer
// reaches the out-of-range fallbacks easily.
//
// Base values below 2^32 fold into the small DRAM so most programs touch
// real memory; larger values are used as they are, reaching the wrapping
// address arithmetic of TestFastPathOverflowAddrsIdentical.
func FuzzFastPathMatchesInterpreter(f *testing.F) {
	// Unit-stride in-bounds spans of every dtype pair (fast path fires).
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(63), uint8(3), uint64(0), uint64(512), uint64(0), []byte("seed"))
	f.Add(uint8(0), uint8(5), int8(1), int8(1), int8(1), uint8(32), uint8(2), uint64(64), uint64(1024), uint64(0), []byte{1, 2, 3})
	f.Add(uint8(2), uint8(1), int8(1), int8(1), int8(1), uint8(16), uint8(4), uint64(128), uint64(900), uint64(0), []byte{0xff, 0x80})
	// Strided / negative / zero strides (element fallback).
	f.Add(uint8(4), uint8(4), int8(2), int8(1), int8(1), uint8(40), uint8(2), uint64(0), uint64(700), uint64(0), []byte("s"))
	f.Add(uint8(3), uint8(3), int8(-1), int8(1), int8(1), uint8(24), uint8(2), uint64(800), uint64(1200), uint64(0), []byte("n"))
	f.Add(uint8(5), uint8(0), int8(0), int8(3), int8(-2), uint8(20), uint8(3), uint64(40), uint64(1500), uint64(0), []byte("z"))
	// Bases near the end of the small DRAM (out-of-range errors).
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(63), uint8(4), uint64(4000), uint64(4050), uint64(0), []byte("e"))
	// TestFastPathOverflowAddrsIdentical's programs: DRAM bases whose
	// byte offsets wrap negative, and a scratch base that wraps base+n.
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(63), uint8(1), uint64(3)<<60, uint64(2048), uint64(0), []byte("o"))
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(63), uint8(1), uint64(0), uint64(3)<<60, uint64(0), []byte("o"))
	f.Add(uint8(4), uint8(4), int8(1), int8(1), int8(1), uint8(63), uint8(0), uint64(0), uint64(2048), uint64(math.MaxInt64-16), []byte("o"))

	f.Fuzz(func(t *testing.T, srcSel, dstSel uint8, srcStride, dstStride, scrStride int8, nSel, repSel uint8, srcBase, dstBase, scrBase uint64, data []byte) {
		dts := []isa.DT{isa.U8, isa.I8, isa.I16, isa.I32, isa.F32, isa.F64}
		srcDT := dts[int(srcSel)%len(dts)]
		dstDT := dts[int(dstSel)%len(dts)]
		n := int32(nSel%64) + 1
		reps := int32(repSel%4) + 1
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
