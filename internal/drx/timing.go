package drx

import "dmx/internal/isa"

// Timing without moving data. Every cycle counter of a Result depends
// only on instruction operands — element counts, strides, dtypes, lane
// count — never on the bytes a program moves, so Machine.Time walks a
// program through the one interpreter Run uses and skips only the
// element transfers of load, store, transpose and the vector ops.
//
// What it must keep is every check those transfers make, so a program
// that fails under Run fails under Time too. The element loops check one
// address at a time; a timing walk checks a whole operand span at once.
// An address is base + i·stride, linear in i, so as long as no
// intermediate wraps, a span lies in an interval range exactly when its
// first and last elements do: an O(1) check. Validate admits any
// non-negative stream base, so a program can push the arithmetic past
// int64; only then does the walk fall back to the per-element checks,
// which compute exactly the (wrapping) expressions the element loops do.
//
// Nor does a timing walk need every iteration of a hardware loop. It
// walks iterations 0, 1 and N−1 of a loop of N > 3 trips and adds
// (N−3) times iteration 1's Result delta for the iterations between.
//
//   - The counters. Each instruction adds an amount fixed by its
//     operands and its streams' dtype and element stride; a Barrier
//     joins the two domains to their max, which commutes with adding
//     one amount to both. Stream state at the top of the body is the
//     same from iteration 1 on, so from there every iteration adds the
//     same delta, nested (collapsed) loops included. Iteration 0 may
//     differ — a barrier entered with unequal domains, a CfgStream that
//     re-bases a stream after the body's first use of it — so it is
//     walked, and iteration 1 is measured, not assumed.
//   - The range checks. Each check is an interval test on an address
//     affine in the loop indices, so the pass set is convex: the checks
//     of iterations 1 and N−1 bound those of 2 … N−2, and nested
//     collapsed loops check the corners of their index box. Time thus
//     still fails exactly when Run does.
//
// The second argument needs addresses that do not wrap. progMetaFor
// rules a program out when some CfgStream base plus its strides times
// the largest loop count could reach spanLimit; run checks the streams
// a machine carries in from earlier programs the same way. A machine
// with an OnDMA hook (which must see every Dma) or with its fast paths
// off (the reference walk) also walks every iteration.

// mayWrap reports whether a stream at base (never negative: Validate)
// with the given per-level strides could address outside ±spanLimit at
// loop indices below trips. Each term is below 2^62 and is added only
// while reach is below spanLimit, so reach itself never wraps.
func mayWrap(base int64, strides []int32, trips int64) bool {
	reach := base
	for _, s := range strides {
		if reach >= spanLimit {
			break
		}
		reach += max(int64(s), -int64(s)) * trips
	}
	return reach >= spanLimit
}

// streamsWrap applies mayWrap to the streams already configured.
func (m *Machine) streamsWrap(trips int64) bool {
	for i := range m.streams {
		if s := &m.streams[i]; s.configured && mayWrap(s.base, s.strides, trips) {
			return true
		}
	}
	return false
}

// repeat adds k more copies of the counter delta since before.
func (r *Result) repeat(before Result, k int64) {
	r.ComputeCycles += k * (r.ComputeCycles - before.ComputeCycles)
	r.MemCycles += k * (r.MemCycles - before.MemCycles)
	r.CtrlCycles += k * (r.CtrlCycles - before.CtrlCycles)
	r.Instrs += k * (r.Instrs - before.Instrs)
	r.BytesLoaded += k * (r.BytesLoaded - before.BytesLoaded)
	r.BytesStored += k * (r.BytesStored - before.BytesStored)
	r.DMABytes += k * (r.DMABytes - before.DMABytes)
}

// scratchOK reports whether scratchpad element i exists.
func (m *Machine) scratchOK(i int64) bool {
	return i >= 0 && i < int64(len(m.scratch))
}

// dramElemOK reports whether DRAM element elem of type dt lies inside
// device memory — the range check of every element read and write.
func (m *Machine) dramElemOK(dt isa.DT, elem int64) bool {
	size := int64(dt.Size())
	off := elem * size
	return off >= 0 && off <= m.cfg.DRAMBytes-size
}

// spanLimit bounds the operands of an O(1) span check. With |base| and
// |(n-1)·stride| both below it, every address base + i·stride (i < n)
// lies within ±2^59 and its byte offset (element size ≤ 8) within
// ±2^62: nothing wraps, so addresses are linear — hence monotone — in i.
const spanLimit = 1 << 58

// spanLinear reports whether the n-element span at base with the given
// stride is computed without int64 wrap. n ≤ 2^31 and |stride| ≤ 2^31,
// so (n-1)·stride itself never overflows.
func spanLinear(base int64, stride int32, n int64) bool {
	last := (n - 1) * int64(stride)
	return -spanLimit < base && base < spanLimit && -spanLimit < last && last < spanLimit
}

// spanOK reports whether ok holds for every address base + i·stride,
// i < n: both endpoints when the span is linear, else every element.
func spanOK(base int64, stride int32, n int64, ok func(int64) bool) bool {
	if n <= 0 {
		return true
	}
	if spanLinear(base, stride, n) {
		return ok(base) && ok(base+(n-1)*int64(stride))
	}
	for i := int64(0); i < n; i++ {
		if !ok(base + i*int64(stride)) {
			return false
		}
	}
	return true
}

// dramSpanOK reports whether every element of a DRAM operand span passes
// the element interpreter's range check.
func (m *Machine) dramSpanOK(dt isa.DT, base int64, stride int32, n int64) bool {
	return spanOK(base, stride, n, func(e int64) bool { return m.dramElemOK(dt, e) })
}

// scratchSpanOK reports whether every element of a scratchpad operand
// span exists.
func (m *Machine) scratchSpanOK(base int64, stride int32, n int64) bool {
	return spanOK(base, stride, n, m.scratchOK)
}

// vectorSpansOK makes, span by span, the scratchpad range checks that
// vectorData's element loops make one access at a time.
func (m *Machine) vectorSpansOK(op isa.Opcode, ops *vecOperands) bool {
	if !m.scratchSpanOK(ops.sa, ops.src1.elemStride, ops.n) {
		return false
	}
	switch {
	case op == isa.VRSum || op == isa.VRMax:
		// A reduction writes its one combined lane.
		return m.scratchOK(ops.da)
	case op == isa.VMacS:
		// The broadcast scalar.
		if !m.scratchOK(ops.sb) {
			return false
		}
	case ops.src2 != nil:
		if !m.scratchSpanOK(ops.sb, ops.src2.elemStride, ops.n) {
			return false
		}
	}
	return m.scratchSpanOK(ops.da, ops.dst.elemStride, ops.n)
}
