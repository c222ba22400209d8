package restructure

import (
	"strings"
	"testing"

	"dmx/internal/tensor"
)

func simpleKernel() *Kernel {
	return &Kernel{
		Name: "double",
		Params: []Param{
			{Name: "x", DType: tensor.Float32, Shape: []int{4}, Dir: In},
			{Name: "y", DType: tensor.Float32, Shape: []int{4}, Dir: Out},
		},
		Stages: []Stage{
			&MapStage{
				Out: "y", Ins: []string{"x"},
				Accs: []Access{IdentityAccess(1)},
				Expr: MulE(InN(0), C(2)),
			},
		},
	}
}

func TestValidateAcceptsSimpleKernel(t *testing.T) {
	if err := simpleKernel().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsDuplicateParams(t *testing.T) {
	k := simpleKernel()
	k.Params = append(k.Params, Param{Name: "x", DType: tensor.Float32, Shape: []int{4}, Dir: In})
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate error, got %v", err)
	}
}

func TestValidateRejectsUndeclaredRead(t *testing.T) {
	k := simpleKernel()
	k.Stages[0].(*MapStage).Ins[0] = "ghost"
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("want undeclared error, got %v", err)
	}
}

func TestValidateRejectsReadBeforeWrite(t *testing.T) {
	k := &Kernel{
		Name: "bad",
		Params: []Param{
			{Name: "x", DType: tensor.Float32, Shape: []int{4}, Dir: In},
			{Name: "t", DType: tensor.Float32, Shape: []int{4}, Dir: Temp},
			{Name: "y", DType: tensor.Float32, Shape: []int{4}, Dir: Out},
		},
		Stages: []Stage{
			&MapStage{Out: "y", Ins: []string{"t"}, Accs: []Access{IdentityAccess(1)}, Expr: InN(0)},
		},
	}
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "before it is written") {
		t.Fatalf("want read-before-write error, got %v", err)
	}
}

func TestValidateRejectsWriteToInput(t *testing.T) {
	k := simpleKernel()
	k.Stages[0].(*MapStage).Out = "x"
	err := k.Validate()
	if err == nil {
		t.Fatal("want error writing input")
	}
}

func TestValidateRejectsUnwrittenOutput(t *testing.T) {
	k := simpleKernel()
	k.Params = append(k.Params, Param{Name: "z", DType: tensor.Float32, Shape: []int{4}, Dir: Out})
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "never written") {
		t.Fatalf("want never-written error, got %v", err)
	}
}

func TestValidateRejectsOutOfBoundsAccess(t *testing.T) {
	k := simpleKernel()
	k.Stages[0].(*MapStage).Accs[0] = StridedAccess([]int{2}, []int{1}) // reaches index 5 of a 4-vector
	if err := k.Validate(); err == nil {
		t.Fatal("want out-of-bounds access error")
	}
}

func TestValidateRejectsExprInputOutOfRange(t *testing.T) {
	k := simpleKernel()
	k.Stages[0].(*MapStage).Expr = InN(3)
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "in3") {
		t.Fatalf("want expr-input error, got %v", err)
	}
}

func TestRunSimpleKernel(t *testing.T) {
	k := simpleKernel()
	in := tensor.FromFloat32([]float32{1, 2, 3, 4}, 4)
	out, err := Run(k, map[string]*tensor.Tensor{"x": in})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6, 8}
	for i, w := range want {
		if got := out["y"].At(i); got != w {
			t.Errorf("y[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestRunRejectsMissingInput(t *testing.T) {
	_, err := Run(simpleKernel(), nil)
	if err == nil || !strings.Contains(err.Error(), "missing input") {
		t.Fatalf("want missing-input error, got %v", err)
	}
}

func TestRunRejectsWrongShape(t *testing.T) {
	in := tensor.FromFloat32([]float32{1, 2}, 2)
	_, err := Run(simpleKernel(), map[string]*tensor.Tensor{"x": in})
	if err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("want shape error, got %v", err)
	}
}

func TestRunRejectsWrongDType(t *testing.T) {
	in := tensor.New(tensor.Int32, 4)
	_, err := Run(simpleKernel(), map[string]*tensor.Tensor{"x": in})
	if err == nil || !strings.Contains(err.Error(), "dtype") {
		t.Fatalf("want dtype error, got %v", err)
	}
}

func TestKernelStatsAggregate(t *testing.T) {
	k := simpleKernel()
	st := k.Stats()
	if st.Elems != 4 {
		t.Errorf("Elems = %d, want 4", st.Elems)
	}
	if st.Ops != 4 { // one mul per element
		t.Errorf("Ops = %d, want 4", st.Ops)
	}
	if st.BytesIn != 16 || st.BytesOut != 16 {
		t.Errorf("Bytes = %d/%d, want 16/16", st.BytesIn, st.BytesOut)
	}
}

func TestInputOutputBytes(t *testing.T) {
	k := MelSpectrogram(8, 16, 4)
	sum := func(ps []*Param) int {
		n := 0
		for _, p := range ps {
			n += p.SizeBytes()
		}
		return n
	}
	if got, want := sum(k.Inputs()), 8*16*8+16*4*4; got != want {
		t.Errorf("input bytes = %d, want %d", got, want)
	}
	if got, want := sum(k.Outputs()), 8*4*4; got != want {
		t.Errorf("output bytes = %d, want %d", got, want)
	}
}
