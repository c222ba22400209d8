package restructure

import "fmt"

// Access is an affine map from a stage's output index to an input index:
//
//	inIdx[d] = Offset[d] + Σ_j Coef[d][j] · outIdx[j]
//
// Affine accesses cover everything the restructuring kernels need —
// identity, broadcast (zero row), strided gather, transposition, and
// digit/field extraction — while remaining analyzable by the compiler:
// the DRX front-end's Strided Scratchpad Address Calculator evaluates
// exactly this form in hardware with <Base, Stride, Iteration> triples.
type Access struct {
	Offset []int
	Coef   [][]int // Coef[d][j]: contribution of output dim j to input dim d
}

// IdentityAccess maps the output index straight through (same rank).
func IdentityAccess(rank int) Access {
	a := Access{Offset: make([]int, rank), Coef: make([][]int, rank)}
	for d := range a.Coef {
		a.Coef[d] = make([]int, rank)
		a.Coef[d][d] = 1
	}
	return a
}

// PermuteAccess reads the input with dimensions permuted: input dim d is
// driven by output dim perm[d]. Used for transposition-by-copy.
func PermuteAccess(perm []int) Access {
	rank := len(perm)
	a := Access{Offset: make([]int, rank), Coef: make([][]int, rank)}
	for d, p := range perm {
		a.Coef[d] = make([]int, rank)
		a.Coef[d][p] = 1
	}
	return a
}

// StridedAccess builds a rank-matching access where input dim d advances
// by stride[d] per step of output dim d, starting at offset[d]. Used for
// downsampling and field extraction from fixed-width records.
func StridedAccess(offset, stride []int) Access {
	if len(offset) != len(stride) {
		panic("restructure: offset/stride rank mismatch")
	}
	a := Access{Offset: append([]int(nil), offset...), Coef: make([][]int, len(stride))}
	for d := range stride {
		a.Coef[d] = make([]int, len(stride))
		a.Coef[d][d] = stride[d]
	}
	return a
}

// RowBroadcast maps output index (i, j, ...) to input index (i): reading
// a per-row scalar computed by a Reduce stage.
func RowBroadcast(outRank int) Access {
	a := Access{Offset: []int{0}, Coef: [][]int{make([]int, outRank)}}
	a.Coef[0][0] = 1
	return a
}

// MapInto applies the access writing the result into in (len must match).
func (a Access) MapInto(out, in []int) {
	for d := range a.Offset {
		v := a.Offset[d]
		row := a.Coef[d]
		for j, o := range out {
			if c := row[j]; c != 0 {
				v += c * o
			}
		}
		in[d] = v
	}
}

// InRank reports the rank of the access's input side.
func (a Access) InRank() int { return len(a.Offset) }

// UnitInnerStride reports whether the innermost output dimension drives
// the innermost input dimension with coefficient 1 and no other input
// dimension depends on it — i.e. the access streams contiguously, which
// both the CPU prefetcher and the DRX off-chip engine exploit.
func (a Access) UnitInnerStride(outRank int) bool {
	if len(a.Offset) == 0 || outRank == 0 {
		return true
	}
	last := outRank - 1
	inLast := len(a.Offset) - 1
	if a.Coef[inLast][last] != 1 {
		return false
	}
	for d := 0; d < inLast; d++ {
		if a.Coef[d][last] != 0 {
			return false
		}
	}
	return true
}

// validate checks the access against the bounds of the input parameter
// shape and the stage's output shape: every reachable input index must be
// in range.
func (a Access) validate(outShape, inShape []int) error {
	if len(a.Offset) != len(inShape) {
		return fmt.Errorf("access rank %d != input rank %d", len(a.Offset), len(inShape))
	}
	for d := range a.Coef {
		if len(a.Coef[d]) != len(outShape) {
			return fmt.Errorf("access coef row %d has %d cols, want %d", d, len(a.Coef[d]), len(outShape))
		}
	}
	// The access is affine, so extrema occur at the corners of the output
	// box; check the min and max reachable index per input dim.
	for d := range a.Offset {
		lo, hi := a.Offset[d], a.Offset[d]
		for j, c := range a.Coef[d] {
			ext := c * (outShape[j] - 1)
			if ext > 0 {
				hi += ext
			} else {
				lo += ext
			}
		}
		if lo < 0 || hi >= inShape[d] {
			return fmt.Errorf("access dim %d ranges [%d,%d], input dim is %d", d, lo, hi, inShape[d])
		}
	}
	return nil
}
