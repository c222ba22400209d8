package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense N-dimensional array over a shared backing buffer.
// Views created by Transpose, Slice, and Reshape alias the same bytes;
// Contiguous materializes a view into fresh storage.
//
// Strides are expressed in elements, not bytes. A scalar has an empty
// shape. The zero Tensor is not meaningful; use New or a From* helper.
type Tensor struct {
	dtype  DType
	shape  []int
	stride []int
	data   []byte
}

// New allocates a zero-filled tensor in row-major (C) order.
func New(dtype DType, shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		dtype:  dtype,
		shape:  append([]int(nil), shape...),
		stride: rowMajorStrides(shape),
		data:   make([]byte, n*dtype.Size()),
	}
}

// FromBytes wraps raw bytes as a Uint8 tensor of the given shape without
// copying. The byte slice must be exactly the tensor's size.
func FromBytes(data []byte, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: %d bytes cannot fill shape %v (%d elems)", len(data), shape, n))
	}
	return &Tensor{
		dtype:  Uint8,
		shape:  append([]int(nil), shape...),
		stride: rowMajorStrides(shape),
		data:   data,
	}
}

// FromFloat32 builds a Float32 tensor initialized from vals.
func FromFloat32(vals []float32, shape ...int) *Tensor {
	t := New(Float32, shape...)
	if len(vals) != t.NumElems() {
		panic(fmt.Sprintf("tensor: %d values cannot fill shape %v", len(vals), shape))
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(t.data[i*4:], math.Float32bits(v))
	}
	return t
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

func rowMajorStrides(shape []int) []int {
	stride := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		stride[i] = acc
		acc *= shape[i]
	}
	return stride
}

// DType reports the element type.
func (t *Tensor) DType() DType { return t.dtype }

// Rank reports the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Shape returns a copy of the tensor's dimensions.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim reports the length of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NumElems reports the total element count.
func (t *Tensor) NumElems() int {
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	return n
}

// SizeBytes reports the logical payload size (elements × element size),
// independent of view aliasing.
func (t *Tensor) SizeBytes() int { return t.NumElems() * t.dtype.Size() }

// IsContiguous reports whether the tensor's elements are laid out
// row-major and densely in its backing buffer.
func (t *Tensor) IsContiguous() bool {
	acc := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		if t.shape[i] != 1 && t.stride[i] != acc {
			return false
		}
		acc *= t.shape[i]
	}
	return true
}

// Bytes exposes the backing bytes of a contiguous tensor without copying.
// It panics on non-contiguous views; call Contiguous first.
func (t *Tensor) Bytes() []byte {
	if !t.IsContiguous() {
		panic("tensor: Bytes on non-contiguous view")
	}
	return t.data[:t.SizeBytes()]
}

// elemIndex converts a multi-index to an element offset in data. idx
// must not escape — the panic message formats a copy — so the variadic
// slice of At/Set and the complex pair stays on the caller's stack.
func (t *Tensor) elemIndex(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	e := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", append([]int(nil), idx...), t.shape))
		}
		e += x * t.stride[i]
	}
	return e
}

// At reads the element at idx as a float64. Complex tensors return the
// real part; use AtComplex for full values.
func (t *Tensor) At(idx ...int) float64 {
	return t.loadFloat(t.elemIndex(idx))
}

// Set stores v (converted to the tensor's dtype, with saturation for
// integer types) at idx.
func (t *Tensor) Set(v float64, idx ...int) {
	t.storeFloat(t.elemIndex(idx), v)
}

// AtComplex reads the element at idx as a complex128.
func (t *Tensor) AtComplex(idx ...int) complex128 {
	e := t.elemIndex(idx)
	if t.dtype == Complex64 {
		b := t.data[e*8:]
		re := math.Float32frombits(binary.LittleEndian.Uint32(b))
		im := math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))
		return complex(float64(re), float64(im))
	}
	return complex(t.loadFloat(e), 0)
}

// SetComplex stores v at idx; the tensor must be Complex64.
func (t *Tensor) SetComplex(v complex128, idx ...int) {
	if t.dtype != Complex64 {
		panic("tensor: SetComplex on non-complex tensor")
	}
	e := t.elemIndex(idx)
	b := t.data[e*8:]
	binary.LittleEndian.PutUint32(b, math.Float32bits(float32(real(v))))
	binary.LittleEndian.PutUint32(b[4:], math.Float32bits(float32(imag(v))))
}

func (t *Tensor) loadFloat(e int) float64 {
	switch t.dtype {
	case Uint8:
		return float64(t.data[e])
	case Int8:
		return float64(int8(t.data[e]))
	case Int16:
		return float64(int16(binary.LittleEndian.Uint16(t.data[e*2:])))
	case Int32:
		return float64(int32(binary.LittleEndian.Uint32(t.data[e*4:])))
	case Int64:
		return float64(int64(binary.LittleEndian.Uint64(t.data[e*8:])))
	case Float32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(t.data[e*4:])))
	case Float64:
		return math.Float64frombits(binary.LittleEndian.Uint64(t.data[e*8:]))
	case Complex64:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(t.data[e*8:])))
	}
	panic("tensor: unknown dtype")
}

func (t *Tensor) storeFloat(e int, v float64) {
	switch t.dtype {
	case Uint8:
		t.data[e] = uint8(clamp(v, 0, 255))
	case Int8:
		t.data[e] = byte(int8(clamp(v, -128, 127)))
	case Int16:
		binary.LittleEndian.PutUint16(t.data[e*2:], uint16(int16(clamp(v, math.MinInt16, math.MaxInt16))))
	case Int32:
		binary.LittleEndian.PutUint32(t.data[e*4:], uint32(int32(clamp(v, math.MinInt32, math.MaxInt32))))
	case Int64:
		binary.LittleEndian.PutUint64(t.data[e*8:], uint64(int64(v)))
	case Float32:
		binary.LittleEndian.PutUint32(t.data[e*4:], math.Float32bits(float32(v)))
	case Float64:
		binary.LittleEndian.PutUint64(t.data[e*8:], math.Float64bits(v))
	case Complex64:
		binary.LittleEndian.PutUint32(t.data[e*8:], math.Float32bits(float32(v)))
		binary.LittleEndian.PutUint32(t.data[e*8+4:], 0)
	default:
		panic("tensor: unknown dtype")
	}
}

func clamp(v, lo, hi float64) float64 {
	// Round half away from zero before saturating, matching the rounding
	// DRX's typecast unit and AVX pack instructions perform.
	v = math.Round(v)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String renders a compact description, with small tensors printed fully.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor(%s, %v)", t.dtype, t.shape)
	if t.NumElems() <= 16 && t.dtype != Complex64 {
		b.WriteString(" [")
		it := NewIter(t.shape)
		first := true
		for it.Next() {
			if !first {
				b.WriteString(" ")
			}
			first = false
			fmt.Fprintf(&b, "%g", t.At(it.Index()...))
		}
		b.WriteString("]")
	}
	return b.String()
}
