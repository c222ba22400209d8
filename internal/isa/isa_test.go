package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func sampleProgram() *Program {
	return &Program{
		Name: "sample",
		Instrs: []Instr{
			{Op: CfgStream, Dst: 0, Space: DRAM, DType: U8, Base: 0, ElemStride: 1, Strides: []int32{64}},
			{Op: CfgStream, Dst: 1, Space: Scratch, DType: F32, Base: 0, ElemStride: 1, Strides: []int32{0}},
			{Op: CfgStream, Dst: 2, Space: DRAM, DType: F32, Base: 4096, ElemStride: 1, Strides: []int32{64}},
			{Op: LoopBegin, N: 16},
			{Op: Load, Dst: 1, Src1: 0, N: 64},
			{Op: VMulI, Dst: 1, Src1: 1, Imm: 2.5, N: 64},
			{Op: VAdd, Dst: 1, Src1: 1, Src2: 1, N: 64},
			{Op: Store, Dst: 2, Src1: 1, N: 64},
			{Op: LoopEnd},
			{Op: Barrier},
			{Op: Halt},
		},
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sampleProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsUnbalancedLoops(t *testing.T) {
	p := sampleProgram()
	p.Instrs = append(p.Instrs[:8:8], Instr{Op: Halt}) // drop LoopEnd
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("want unterminated-loop error, got %v", err)
	}
}

func TestValidateRejectsUnmatchedEndloop(t *testing.T) {
	p := &Program{Name: "bad", Instrs: []Instr{{Op: LoopEnd}, {Op: Halt}}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unmatched") {
		t.Fatalf("want unmatched error, got %v", err)
	}
}

func TestValidateRejectsMissingHalt(t *testing.T) {
	p := &Program{Name: "bad", Instrs: []Instr{{Op: Nop}}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "halt") {
		t.Fatalf("want missing-halt error, got %v", err)
	}
}

func TestValidateRejectsDeepNesting(t *testing.T) {
	p := &Program{Name: "deep"}
	for i := 0; i < MaxLoopDepth+1; i++ {
		p.Instrs = append(p.Instrs, Instr{Op: LoopBegin, N: 2})
	}
	for i := 0; i < MaxLoopDepth+1; i++ {
		p.Instrs = append(p.Instrs, Instr{Op: LoopEnd})
	}
	p.Instrs = append(p.Instrs, Instr{Op: Halt})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("want nesting error, got %v", err)
	}
}

func TestValidateRejectsBadStreamID(t *testing.T) {
	p := &Program{Name: "bad", Instrs: []Instr{
		{Op: VAdd, Dst: MaxStreams, Src1: 0, Src2: 0, N: 4},
		{Op: Halt},
	}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want range error, got %v", err)
	}
}

// TestValidateRejectsBadScalarRegs checks every register operand of the
// scalar ops, sources included: an out-of-range source would otherwise
// reach the machine as an out-of-range index.
func TestValidateRejectsBadScalarRegs(t *testing.T) {
	for _, in := range []Instr{
		{Op: SLi, Dst: NumScalarRegs},
		{Op: SAdd, Dst: 0, Src1: 99, Src2: 0},
		{Op: SAdd, Dst: 0, Src1: 0, Src2: NumScalarRegs},
		{Op: SMul, Dst: 0, Src1: -1, Src2: 0},
		{Op: SMul, Dst: -1, Src1: 0, Src2: 0},
	} {
		p := &Program{Name: "bad", Instrs: []Instr{in, {Op: Halt}}}
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "scalar reg") {
			t.Errorf("%v: want scalar-reg error, got %v", in, err)
		}
	}
	ok := &Program{Name: "ok", Instrs: []Instr{
		{Op: SAdd, Dst: NumScalarRegs - 1, Src1: 0, Src2: NumScalarRegs - 1},
		{Op: SLi, Dst: 0, Src1: 99, Src2: -1}, // sli reads no sources
		{Op: Halt},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleProgram()
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || len(q.Instrs) != len(p.Instrs) {
		t.Fatalf("decoded %q/%d, want %q/%d", q.Name, len(q.Instrs), p.Name, len(p.Instrs))
	}
	for i := range p.Instrs {
		if p.Instrs[i].String() != q.Instrs[i].String() {
			t.Errorf("instr %d: %q != %q", i, p.Instrs[i], q.Instrs[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a program")); err == nil {
		t.Error("decoded garbage")
	}
	data, _ := Encode(sampleProgram())
	if _, err := Decode(data[:len(data)-3]); err == nil {
		t.Error("decoded truncated program")
	}
	if _, err := Decode(append(data, 0)); err == nil {
		t.Error("decoded program with trailing bytes")
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	p := sampleProgram()
	text := p.Disassemble()
	q, err := Assemble(text)
	if err != nil {
		t.Fatalf("Assemble:\n%s\nerror: %v", text, err)
	}
	if q.Name != "sample" {
		t.Errorf("name %q, want sample", q.Name)
	}
	if len(q.Instrs) != len(p.Instrs) {
		t.Fatalf("got %d instrs, want %d", len(q.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		if p.Instrs[i].String() != q.Instrs[i].String() {
			t.Errorf("instr %d: %q != %q", i, p.Instrs[i], q.Instrs[i])
		}
	}
}

func TestAssembleAllFormats(t *testing.T) {
	src := `
; program everything
cfgstream s0 dram u8 base=16 estride=2 strides=8,4
cfgstream s1 scratch f32 base=0 estride=1
cfgstream s2 dram i32 base=128 estride=1 strides=32
loop 4
  load s1, s0, 32
  vaddi s1, s1, 1.5, 32
  vneg s1, s1, 32
  vsqrt s1, s1, 32
  vmacs s1, s1, s1, 32
  vrsum s1, s1, 32
  trans s1, s1, 4x8
  store s2, s1, 32
endloop
dma q3, 4096
sli r1, 42
sadd r2, r1, r1
smul r3, r2, r1
barrier
halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "everything" {
		t.Errorf("name %q", p.Name)
	}
	if p.Instrs[0].Strides[1] != 4 || p.Instrs[0].ElemStride != 2 {
		t.Errorf("cfgstream fields wrong: %+v", p.Instrs[0])
	}
	// Round-trip the full program once more.
	q, err := Assemble(p.Disassemble())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Instrs {
		if p.Instrs[i].String() != q.Instrs[i].String() {
			t.Errorf("instr %d: %q != %q", i, p.Instrs[i], q.Instrs[i])
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus s0, s1, 4\nhalt",
		"loop\nendloop\nhalt",
		"vadd s0, s1, 4\nhalt", // missing operand
		"load s0 s1\nhalt",     // missing count
		"cfgstream s0 mars f32 base=0 estride=1\nhalt",
		"trans s0, s1, 4by8\nhalt",
		"sli x1, 3\nhalt",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("assembled invalid source %q", src)
		}
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !VAdd.IsVector() || !VRMax.IsVector() || Load.IsVector() {
		t.Error("IsVector wrong")
	}
	if !VMov.IsUnary() || VAdd.IsUnary() {
		t.Error("IsUnary wrong")
	}
	if !VMulI.HasImm() || VMul.HasImm() {
		t.Error("HasImm wrong")
	}
	if U8.Size() != 1 || F64.Size() != 8 || I16.Size() != 2 {
		t.Error("DT sizes wrong")
	}
}

// Property: Encode/Decode round-trips arbitrary (valid) vector programs.
func TestCodecRoundTripProperty(t *testing.T) {
	prop := func(n uint8, imm float32, base uint16) bool {
		count := int(n%20) + 1
		p := &Program{Name: "prop"}
		p.Instrs = append(p.Instrs, Instr{
			Op: CfgStream, Dst: 1, Space: Scratch, DType: F32,
			Base: int64(base), ElemStride: 1, Strides: []int32{int32(n)},
		})
		for i := 0; i < count; i++ {
			p.Instrs = append(p.Instrs, Instr{Op: VAddI, Dst: 1, Src1: 1, Imm: imm, N: int32(i%64) + 1})
		}
		p.Instrs = append(p.Instrs, Instr{Op: Halt})
		data, err := Encode(p)
		if err != nil {
			return false
		}
		q, err := Decode(data)
		if err != nil || len(q.Instrs) != len(p.Instrs) {
			return false
		}
		for i := range p.Instrs {
			if p.Instrs[i].String() != q.Instrs[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
