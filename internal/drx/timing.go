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
