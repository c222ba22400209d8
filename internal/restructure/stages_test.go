package restructure

import (
	"math"
	"testing"
	"testing/quick"

	"dmx/internal/tensor"
)

func runStage(t *testing.T, k *Kernel, inputs map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	t.Helper()
	out, err := Run(k, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMapWithBroadcastAccess(t *testing.T) {
	// y[i,j] = x[i,j] + b[j]
	k := &Kernel{
		Name: "rowadd",
		Params: []Param{
			{Name: "x", DType: tensor.Float32, Shape: []int{2, 3}, Dir: In},
			{Name: "b", DType: tensor.Float32, Shape: []int{3}, Dir: In},
			{Name: "y", DType: tensor.Float32, Shape: []int{2, 3}, Dir: Out},
		},
		Stages: []Stage{
			&MapStage{
				Out: "y", Ins: []string{"x", "b"},
				Accs: []Access{IdentityAccess(2), channelAccess()},
				Expr: AddE(InN(0), InN(1)),
			},
		},
	}
	x := tensor.FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := tensor.FromFloat32([]float32{10, 20, 30}, 3)
	out := runStage(t, k, map[string]*tensor.Tensor{"x": x, "b": b})
	want := [][]float64{{11, 22, 33}, {14, 25, 36}}
	for i := range want {
		for j := range want[i] {
			if got := out["y"].At(i, j); got != want[i][j] {
				t.Errorf("y[%d,%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
}

func TestReduceSumMaxMean(t *testing.T) {
	mk := func(op ReduceOp, axis int, outShape []int) *Kernel {
		return &Kernel{
			Name: "red",
			Params: []Param{
				{Name: "x", DType: tensor.Float32, Shape: []int{2, 3}, Dir: In},
				{Name: "y", DType: tensor.Float32, Shape: outShape, Dir: Out},
			},
			Stages: []Stage{&ReduceStage{Out: "y", In: "x", Axis: axis, Op: op}},
		}
	}
	x := tensor.FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	in := map[string]*tensor.Tensor{"x": x}

	sum := runStage(t, mk(SumR, 1, []int{2}), in)["y"]
	if sum.At(0) != 6 || sum.At(1) != 15 {
		t.Errorf("sum = %v %v, want 6 15", sum.At(0), sum.At(1))
	}
	max := runStage(t, mk(MaxR, 0, []int{3}), in)["y"]
	if max.At(0) != 4 || max.At(2) != 6 {
		t.Errorf("max = %v %v, want 4 6", max.At(0), max.At(2))
	}
	mean := runStage(t, mk(MeanR, 1, []int{2}), in)["y"]
	if mean.At(0) != 2 || mean.At(1) != 5 {
		t.Errorf("mean = %v %v, want 2 5", mean.At(0), mean.At(1))
	}
}

func TestMatMul(t *testing.T) {
	k := &Kernel{
		Name: "mm",
		Params: []Param{
			{Name: "a", DType: tensor.Float32, Shape: []int{2, 3}, Dir: In},
			{Name: "b", DType: tensor.Float32, Shape: []int{3, 2}, Dir: In},
			{Name: "c", DType: tensor.Float32, Shape: []int{2, 2}, Dir: Out},
		},
		Stages: []Stage{&MatMulStage{Out: "c", A: "a", B: "b"}},
	}
	a := tensor.FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := tensor.FromFloat32([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := runStage(t, k, map[string]*tensor.Tensor{"a": a, "b": b})["c"]
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if got := c.At(i, j); got != want[i][j] {
				t.Errorf("c[%d,%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
	st := k.Stages[0].Stats(k)
	if st.Ops != 2*2*2*3 {
		t.Errorf("matmul Ops = %d, want 24", st.Ops)
	}
}

func TestTransposeStageMaterializes(t *testing.T) {
	k := &Kernel{
		Name: "tr",
		Params: []Param{
			{Name: "x", DType: tensor.Float32, Shape: []int{2, 3}, Dir: In},
			{Name: "y", DType: tensor.Float32, Shape: []int{3, 2}, Dir: Out},
		},
		Stages: []Stage{&TransposeStage{Out: "y", In: "x", Perm: []int{1, 0}}},
	}
	x := tensor.FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := runStage(t, k, map[string]*tensor.Tensor{"x": x})["y"]
	if !y.IsContiguous() {
		t.Error("transpose stage output not contiguous")
	}
	if y.At(2, 1) != 6 || y.At(1, 0) != 2 {
		t.Errorf("transposed values wrong: %v %v", y.At(2, 1), y.At(1, 0))
	}
	if k.Stages[0].Stats(k).VectorFriendly {
		t.Error("transpose should not be vector-friendly")
	}
}

func TestTypecastSaturates(t *testing.T) {
	k := &Kernel{
		Name: "cast",
		Params: []Param{
			{Name: "x", DType: tensor.Float32, Shape: []int{3}, Dir: In},
			{Name: "y", DType: tensor.Int8, Shape: []int{3}, Dir: Out},
		},
		Stages: []Stage{&TypecastStage{Out: "y", In: "x"}},
	}
	x := tensor.FromFloat32([]float32{300, -300, 1.6}, 3)
	y := runStage(t, k, map[string]*tensor.Tensor{"x": x})["y"]
	if y.At(0) != 127 || y.At(1) != -128 || y.At(2) != 2 {
		t.Errorf("cast = %v %v %v, want 127 -128 2", y.At(0), y.At(1), y.At(2))
	}
}

func TestReshapeStage(t *testing.T) {
	k := &Kernel{
		Name: "rs",
		Params: []Param{
			{Name: "x", DType: tensor.Uint8, Shape: []int{6}, Dir: In},
			{Name: "y", DType: tensor.Uint8, Shape: []int{2, 3}, Dir: Out},
		},
		Stages: []Stage{&ReshapeStage{Out: "y", In: "x"}},
	}
	x := tensor.FromBytes([]byte{1, 2, 3, 4, 5, 6}, 6)
	y := runStage(t, k, map[string]*tensor.Tensor{"x": x})["y"]
	if y.At(1, 2) != 6 || y.At(0, 1) != 2 {
		t.Errorf("reshape values wrong")
	}
}

func TestExprEval(t *testing.T) {
	cases := []struct {
		e    Expr
		in   []complex128
		want float64
	}{
		{AddE(C(2), C(3)), nil, 5},
		{SubE(InN(0), C(1)), []complex128{4}, 3},
		{MulE(InN(0), InN(1)), []complex128{3, 4}, 12},
		{DivE(C(10), C(4)), nil, 2.5},
		{DivE(C(1), C(0)), nil, 0}, // guarded division
		{Unary{Op: Neg, X: C(2)}, nil, -2},
		{Unary{Op: Abs, X: C(-2)}, nil, 2},
		{SqrtE(C(9)), nil, 3},
		{SqrtE(C(-1)), nil, 0}, // guarded sqrt
		{LogE(C(math.E)), nil, 1},
		{Unary{Op: Exp, X: C(0)}, nil, 1},
		{Unary{Op: Floor, X: C(2.7)}, nil, 2},
		{Mag2E(0), []complex128{3 + 4i}, 25},
		{Unary{Op: Re, X: InN(0)}, []complex128{3 + 4i}, 3},
		{Unary{Op: Im, X: InN(0)}, []complex128{3 + 4i}, 4},
		{Binary{Op: Min, X: C(2), Y: C(5)}, nil, 2},
		{Binary{Op: Max, X: C(2), Y: C(5)}, nil, 5},
		{Binary{Op: Mod, X: C(7), Y: C(3)}, nil, 1},
	}
	for _, c := range cases {
		if got := c.e.eval(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestExprOpsCount(t *testing.T) {
	e := MulAdd(InN(0), 2, 3) // mul + add
	if e.ops() != 2 {
		t.Errorf("ops = %d, want 2", e.ops())
	}
}

// Property: a Map stage with identity access and the identity expression
// is a lossless copy for arbitrary float32 data.
func TestMapIdentityProperty(t *testing.T) {
	prop := func(vals [12]float32) bool {
		for i, v := range vals {
			if math.IsNaN(float64(v)) {
				vals[i] = 0
			}
		}
		k := &Kernel{
			Name: "id",
			Params: []Param{
				{Name: "x", DType: tensor.Float32, Shape: []int{3, 4}, Dir: In},
				{Name: "y", DType: tensor.Float32, Shape: []int{3, 4}, Dir: Out},
			},
			Stages: []Stage{&MapStage{
				Out: "y", Ins: []string{"x"},
				Accs: []Access{IdentityAccess(2)},
				Expr: InN(0),
			}},
		}
		x := tensor.FromFloat32(vals[:], 3, 4)
		out, err := Run(k, map[string]*tensor.Tensor{"x": x})
		return err == nil && tensor.Equal(x, out["y"])
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Reduce(SumR) equals the arithmetic sum within float tolerance.
func TestReduceSumProperty(t *testing.T) {
	prop := func(vals [10]float32) bool {
		k := &Kernel{
			Name: "sum",
			Params: []Param{
				{Name: "x", DType: tensor.Float64, Shape: []int{10}, Dir: In},
				{Name: "y", DType: tensor.Float64, Shape: []int{}, Dir: Out},
			},
			Stages: []Stage{&ReduceStage{Out: "y", In: "x", Axis: 0, Op: SumR}},
		}
		var want float64
		f := make([]float64, 10)
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 1
			}
			f[i] = float64(v)
			want += float64(v)
		}
		x := tensor.New(tensor.Float64, 10)
		for i, v := range f {
			x.Set(v, i)
		}
		out, err := Run(k, map[string]*tensor.Tensor{"x": x})
		if err != nil {
			return false
		}
		got := out["y"].At()
		return got == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessHelpers(t *testing.T) {
	mapped := func(a Access, out []int) []int {
		in := make([]int, a.InRank())
		a.MapInto(out, in)
		return in
	}
	if got := mapped(IdentityAccess(3), []int{1, 2, 3}); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("identity map = %v", got)
	}
	perm := PermuteAccess([]int{1, 0})
	if got := mapped(perm, []int{3, 7}); got[0] != 7 || got[1] != 3 {
		t.Errorf("permute map = %v", got)
	}
	st := StridedAccess([]int{5, 0}, []int{2, 1})
	if got := mapped(st, []int{3, 4}); got[0] != 11 || got[1] != 4 {
		t.Errorf("strided map = %v", got)
	}
	rb := RowBroadcast(2)
	if got := mapped(rb, []int{6, 9}); len(got) != 1 || got[0] != 6 {
		t.Errorf("rowbroadcast map = %v", got)
	}
}

func TestUnitInnerStride(t *testing.T) {
	if !IdentityAccess(2).UnitInnerStride(2) {
		t.Error("identity should be unit-stride")
	}
	if PermuteAccess([]int{1, 0}).UnitInnerStride(2) {
		t.Error("transpose access should not be unit-stride")
	}
	if !StridedAccess([]int{0, 3}, []int{1, 1}).UnitInnerStride(2) {
		t.Error("offset column extraction should be unit-stride")
	}
	if StridedAccess([]int{0, 0}, []int{1, 2}).UnitInnerStride(2) {
		t.Error("stride-2 inner should not be unit-stride")
	}
}
