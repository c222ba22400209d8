package tensor

import "fmt"

// DType identifies the element type of a tensor.
type DType int

// Supported element types. The set covers what the five benchmark
// pipelines exchange: raw bytes (video, ciphertext), quantized integers
// (DNN inputs), floats (FFT, SVM, RL), and complex FFT outputs.
const (
	Uint8 DType = iota
	Int8
	Int16
	Int32
	Int64
	Float32
	Float64
	Complex64
)

var dtypeNames = [...]string{
	Uint8:     "uint8",
	Int8:      "int8",
	Int16:     "int16",
	Int32:     "int32",
	Int64:     "int64",
	Float32:   "float32",
	Float64:   "float64",
	Complex64: "complex64",
}

var dtypeSizes = [...]int{
	Uint8:     1,
	Int8:      1,
	Int16:     2,
	Int32:     4,
	Int64:     8,
	Float32:   4,
	Float64:   8,
	Complex64: 8,
}

// String returns the dtype's conventional name.
func (d DType) String() string {
	if int(d) < len(dtypeNames) {
		return dtypeNames[d]
	}
	return fmt.Sprintf("DType(%d)", int(d))
}

// Size reports the element size in bytes.
func (d DType) Size() int {
	if int(d) >= len(dtypeSizes) {
		panic(fmt.Sprintf("tensor: unknown dtype %d", int(d)))
	}
	return dtypeSizes[d]
}

// IsComplex reports whether the dtype holds complex values.
func (d DType) IsComplex() bool { return d == Complex64 }
