package tensor

import "fmt"

// Reshape returns a view with a new shape covering the same elements in
// row-major order. The tensor must be contiguous (reshaping a strided
// view would require a copy; do that explicitly via Contiguous).
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != t.NumElems() {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, t.NumElems(), shape, n))
	}
	if !t.IsContiguous() {
		panic("tensor: Reshape on non-contiguous view; call Contiguous first")
	}
	return &Tensor{
		dtype:  t.dtype,
		shape:  append([]int(nil), shape...),
		stride: rowMajorStrides(shape),
		data:   t.data,
	}
}

// Transpose returns a view with dimensions permuted by perm, without
// moving any data. perm must be a permutation of 0..rank-1.
func (t *Tensor) Transpose(perm ...int) *Tensor {
	if len(perm) != len(t.shape) {
		panic(fmt.Sprintf("tensor: permutation %v does not match rank %d", perm, len(t.shape)))
	}
	seen := make([]bool, len(perm))
	shape := make([]int, len(perm))
	stride := make([]int, len(perm))
	for i, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			panic(fmt.Sprintf("tensor: invalid permutation %v", perm))
		}
		seen[p] = true
		shape[i] = t.shape[p]
		stride[i] = t.stride[p]
	}
	return &Tensor{dtype: t.dtype, shape: shape, stride: stride, data: t.data}
}

// Contiguous materializes the tensor into fresh row-major storage. A
// tensor that is already contiguous is returned unchanged.
func (t *Tensor) Contiguous() *Tensor {
	if t.IsContiguous() {
		return t
	}
	out := New(t.dtype, t.shape...)
	it := NewIter(t.shape)
	if t.dtype == Complex64 {
		for it.Next() {
			out.SetComplex(t.AtComplex(it.Index()...), it.Index()...)
		}
		return out
	}
	for it.Next() {
		out.Set(t.At(it.Index()...), it.Index()...)
	}
	return out
}

// Reinterpret views the tensor's raw bytes as a different dtype and
// shape without copying. The receiver must be contiguous and its byte
// size must match the target exactly — this is the host-side view of a
// device buffer whose logical type the kernel layout dictates.
func (t *Tensor) Reinterpret(dtype DType, shape ...int) *Tensor {
	n := checkShape(shape)
	if n*dtype.Size() != t.SizeBytes() {
		panic(fmt.Sprintf("tensor: cannot reinterpret %d bytes as %v%v (%d bytes)",
			t.SizeBytes(), dtype, shape, n*dtype.Size()))
	}
	return &Tensor{
		dtype:  dtype,
		shape:  append([]int(nil), shape...),
		stride: rowMajorStrides(shape),
		data:   t.Bytes(),
	}
}

// Equal reports whether two tensors have the same dtype, shape, and
// element values (bitwise for floats via their canonical encodings).
func Equal(a, b *Tensor) bool {
	if a.dtype != b.dtype || len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	it := NewIter(a.shape)
	for it.Next() {
		if a.AtComplex(it.Index()...) != b.AtComplex(it.Index()...) {
			return false
		}
	}
	return true
}

// AllClose reports whether two tensors match elementwise within tol
// (absolute). Shapes and dtypes may differ; values are compared as
// complex128.
func AllClose(a, b *Tensor, tol float64) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	it := NewIter(a.shape)
	for it.Next() {
		d := a.AtComplex(it.Index()...) - b.AtComplex(it.Index()...)
		if abs2(d) > tol*tol {
			return false
		}
	}
	return true
}

func abs2(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }
