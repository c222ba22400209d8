package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(Float32, 2, 3)
	if x.NumElems() != 6 || x.SizeBytes() != 24 {
		t.Fatalf("NumElems=%d SizeBytes=%d", x.NumElems(), x.SizeBytes())
	}
	it := NewIter(x.Shape())
	for it.Next() {
		if x.At(it.Index()...) != 0 {
			t.Fatal("new tensor not zero-filled")
		}
	}
}

func TestSetAtRoundTripAllDTypes(t *testing.T) {
	for _, d := range []DType{Uint8, Int8, Int16, Int32, Int64, Float32, Float64} {
		x := New(d, 4)
		x.Set(42, 2)
		if got := x.At(2); got != 42 {
			t.Errorf("%v: At = %v, want 42", d, got)
		}
		if got := x.At(1); got != 0 {
			t.Errorf("%v: neighbor disturbed: %v", d, got)
		}
	}
}

func TestIntegerSaturation(t *testing.T) {
	cases := []struct {
		d        DType
		in, want float64
	}{
		{Uint8, 300, 255},
		{Uint8, -5, 0},
		{Int8, 200, 127},
		{Int8, -200, -128},
		{Int16, 1e6, 32767},
		{Int32, 1e12, math.MaxInt32},
	}
	for _, c := range cases {
		x := New(c.d, 1)
		x.Set(c.in, 0)
		if got := x.At(0); got != c.want {
			t.Errorf("%v: Set(%v) read back %v, want %v", c.d, c.in, got, c.want)
		}
	}
}

func TestRoundingHalfAwayFromZero(t *testing.T) {
	x := New(Int8, 2)
	x.Set(2.5, 0)
	x.Set(-2.5, 1)
	if x.At(0) != 3 || x.At(1) != -3 {
		t.Errorf("rounding: got %v, %v; want 3, -3", x.At(0), x.At(1))
	}
}

func TestComplexRoundTrip(t *testing.T) {
	x := New(Complex64, 2, 2)
	x.SetComplex(3+4i, 1, 0)
	if got := x.AtComplex(1, 0); got != 3+4i {
		t.Errorf("AtComplex = %v, want (3+4i)", got)
	}
	// At() on complex returns the real part.
	if got := x.At(1, 0); got != 3 {
		t.Errorf("At on complex = %v, want 3", got)
	}
}

func TestFromBytesNoCopy(t *testing.T) {
	raw := []byte{1, 2, 3, 4, 5, 6}
	x := FromBytes(raw, 2, 3)
	raw[0] = 99
	if x.At(0, 0) != 99 {
		t.Error("FromBytes copied the data")
	}
	if x.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", x.At(1, 2))
	}
}

func TestTransposeIsView(t *testing.T) {
	x := FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Transpose(1, 0)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("transposed shape %v", y.Shape())
	}
	if y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Errorf("transposed values wrong: %v %v", y.At(2, 1), y.At(0, 1))
	}
	// Mutating the view mutates the base.
	y.Set(42, 1, 0)
	if x.At(0, 1) != 42 {
		t.Error("transpose is not a view")
	}
	if y.IsContiguous() {
		t.Error("transposed 2x3 should not be contiguous")
	}
}

func TestContiguousMaterializesView(t *testing.T) {
	x := FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Transpose(1, 0).Contiguous()
	if !y.IsContiguous() {
		t.Fatal("Contiguous returned non-contiguous tensor")
	}
	want := []float64{1, 4, 2, 5, 3, 6}
	for i, w := range want {
		if got := y.At(i/2, i%2); got != w {
			t.Errorf("elem %d = %v, want %v", i, got, w)
		}
	}
	// Now independent of the base.
	y.Set(-1, 0, 0)
	if x.At(0, 0) == -1 {
		t.Error("Contiguous aliased the base")
	}
}

func TestReshape(t *testing.T) {
	x := FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Errorf("reshaped At(2,1) = %v, want 6", y.At(2, 1))
	}
	y.Set(9, 0, 0)
	if x.At(0, 0) != 9 {
		t.Error("reshape is not a view")
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(Float32, 2, 3).Reshape(4)
}

func TestEqualAndAllClose(t *testing.T) {
	a := FromFloat32([]float32{1, 2, 3}, 3)
	b := FromFloat32([]float32{1, 2, 3}, 3)
	c := FromFloat32([]float32{1, 2, 3.001}, 3)
	if !Equal(a, b) {
		t.Error("Equal(a,b) = false")
	}
	if Equal(a, c) {
		t.Error("Equal(a,c) = true")
	}
	if !AllClose(a, c, 0.01) {
		t.Error("AllClose(a,c,0.01) = false")
	}
	if AllClose(a, c, 1e-6) {
		t.Error("AllClose(a,c,1e-6) = true")
	}
}

// TestAllCloseNonFinite pins AllClose on NaN and infinities: a NaN
// matches nothing, an infinity matches only itself, at any tolerance.
func TestAllCloseNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		a, b float64
		want bool
	}{
		{nan, 7, false},
		{7, nan, false},
		{nan, nan, false},
		{inf, inf, true},
		{-inf, -inf, true},
		{inf, -inf, false},
		{inf, 1e300, false},
		{-1e300, -inf, false},
		{inf, nan, false},
	} {
		for _, tol := range []float64{0, 1e-3, 1} {
			a, b := New(Float64, 2), New(Float64, 2)
			a.Set(1, 0)
			b.Set(1, 0)
			a.Set(c.a, 1)
			b.Set(c.b, 1)
			if got := AllClose(a, b, tol); got != c.want {
				t.Errorf("AllClose([1 %v], [1 %v], %g) = %v, want %v", c.a, c.b, tol, got, c.want)
			}
		}
	}
	// Complex elements compare on both parts.
	z := New(Complex64, 1)
	w := New(Complex64, 1)
	z.SetComplex(complex(1, nan), 0)
	w.SetComplex(complex(1, 0), 0)
	if AllClose(z, w, 1) || AllClose(z, z, 1) {
		t.Error("AllClose matched a complex element with a NaN part")
	}
}

func TestIterCoversShape(t *testing.T) {
	it := NewIter([]int{2, 3, 2})
	n := 0
	for it.Next() {
		n++
	}
	if n != 12 {
		t.Errorf("iterated %d indices, want 12", n)
	}
}

func TestIterScalarAndEmpty(t *testing.T) {
	it := NewIter(nil)
	if !it.Next() {
		t.Error("scalar iter should yield one index")
	}
	if it.Next() {
		t.Error("scalar iter yielded two indices")
	}
	empty := NewIter([]int{3, 0, 2})
	if empty.Next() {
		t.Error("empty shape yielded an index")
	}
}

// Property: transpose twice with the inverse permutation is identity.
func TestTransposeInvolutionProperty(t *testing.T) {
	prop := func(vals [6]float32) bool {
		s := vals[:]
		x := FromFloat32(s, 2, 3)
		y := x.Transpose(1, 0).Transpose(1, 0)
		return Equal(x, y.Contiguous()) || Equal(x, y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Contiguous preserves all element values for any permutation of
// a rank-3 tensor.
func TestContiguousPreservesValuesProperty(t *testing.T) {
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	prop := func(raw [24]float32, pi uint8) bool {
		x := FromFloat32(raw[:], 2, 3, 4)
		perm := perms[int(pi)%len(perms)]
		y := x.Transpose(perm...)
		z := y.Contiguous()
		it := NewIter(y.Shape())
		for it.Next() {
			if y.At(it.Index()...) != z.At(it.Index()...) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: storing float32 values into a Float64 tensor and back into a
// Float32 one is lossless.
func TestTypecastRoundTripProperty(t *testing.T) {
	prop := func(vals [8]float32) bool {
		for i, v := range vals {
			if math.IsNaN(float64(v)) {
				vals[i] = 0
			}
		}
		x := FromFloat32(vals[:], 8)
		y, z := New(Float64, 8), New(Float32, 8)
		for i := range vals {
			y.Set(x.At(i), i)
			z.Set(y.At(i), i)
		}
		return Equal(x, z)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStringSmall(t *testing.T) {
	x := FromFloat32([]float32{1, 2}, 2)
	got := x.String()
	want := "Tensor(float32, [2]) [1 2]"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestElementAccessDoesNotAllocate pins the per-element accessors at
// zero heap allocations: the variadic index slice must stay on the
// caller's stack, which holds only while elemIndex's panic path formats
// a copy of idx rather than idx itself.
func TestElementAccessDoesNotAllocate(t *testing.T) {
	x := New(Float32, 4, 5)
	c := New(Complex64, 4, 5)
	i, j := 2, 3
	var sink float64
	var csink complex128
	for name, f := range map[string]func(){
		"At":         func() { sink += x.At(i, j) },
		"Set":        func() { x.Set(sink, i, j) },
		"AtComplex":  func() { csink += c.AtComplex(i, j) },
		"SetComplex": func() { c.SetComplex(csink, i, j) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

func TestOutOfRangePanicReportsIndex(t *testing.T) {
	x := New(Uint8, 2, 3)
	defer func() {
		msg, _ := recover().(string)
		if msg != "tensor: index [2 1] out of range for shape [2 3]" {
			t.Errorf("panic message %q", msg)
		}
	}()
	x.At(2, 1)
}
