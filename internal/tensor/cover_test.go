package tensor

import "testing"

func TestDTypePredicates(t *testing.T) {
	if !Complex64.IsComplex() || Float32.IsComplex() {
		t.Error("IsComplex wrong")
	}
	if DType(99).String() == "" {
		t.Error("unknown dtype String empty")
	}
}

func TestDTypeSizePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown dtype size")
		}
	}()
	DType(99).Size()
}

func TestReinterpret(t *testing.T) {
	x := FromBytes([]byte{1, 0, 0, 0, 2, 0, 0, 0}, 8)
	y := x.Reinterpret(Int32, 2)
	if y.At(0) != 1 || y.At(1) != 2 {
		t.Errorf("reinterpret values %v %v", y.At(0), y.At(1))
	}
	defer func() {
		if recover() == nil {
			t.Error("size-mismatched reinterpret accepted")
		}
	}()
	x.Reinterpret(Int32, 3)
}

func TestFillAndGetters(t *testing.T) {
	x := New(Float64, 2, 3)
	it := NewIter(x.Shape())
	for it.Next() {
		x.Set(7, it.Index()...)
	}
	for it = NewIter(x.Shape()); it.Next(); {
		if x.At(it.Index()...) != 7 {
			t.Fatal("fill incomplete")
		}
	}
	if x.Rank() != 2 || x.DType() != Float64 || x.Dim(1) != 3 {
		t.Error("getters wrong")
	}
}

func TestBytesPanicsOnView(t *testing.T) {
	v := FromFloat32([]float32{1, 2, 3, 4}, 2, 2).Transpose(1, 0)
	defer func() {
		if recover() == nil {
			t.Error("Bytes on view did not panic")
		}
	}()
	v.Bytes()
}

func TestConstructorSizeMismatchesPanic(t *testing.T) {
	cases := []func(){
		func() { FromFloat32([]float32{1}, 2) },
		func() { FromBytes([]byte{1}, 2) },
		func() { New(Float32, -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTransposeInvalidPermPanics(t *testing.T) {
	x := New(Float32, 2, 3)
	for i, perm := range [][]int{{0}, {0, 0}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("perm case %d did not panic", i)
				}
			}()
			x.Transpose(perm...)
		}()
	}
}

func TestAtIndexValidation(t *testing.T) {
	x := New(Float32, 2, 3)
	for i, f := range []func(){
		func() { x.At(0) },               // wrong rank
		func() { x.At(2, 0) },            // out of range
		func() { x.At(0, -1) },           // negative
		func() { x.SetComplex(1, 0, 0) }, // non-complex
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAllCloseShapeMismatch(t *testing.T) {
	a := New(Float32, 2)
	b := New(Float32, 3)
	c := New(Float32, 2, 1)
	if AllClose(a, b, 1) || AllClose(a, c, 1) {
		t.Error("AllClose accepted mismatched shapes")
	}
	if Equal(a, c) {
		t.Error("Equal accepted mismatched ranks")
	}
}
