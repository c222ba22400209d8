package restructure

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"

	"dmx/internal/tensor"
)

// Dir classifies a kernel parameter.
type Dir int

// Parameter directions. In parameters arrive from the upstream
// accelerator (or are constant weights), Out parameters feed the
// downstream accelerator, and Temp parameters are kernel-internal
// scratch allocated by the executor.
const (
	In Dir = iota
	Out
	Temp
)

func (d Dir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case Temp:
		return "temp"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Param declares one named tensor the kernel touches.
type Param struct {
	Name  string
	DType tensor.DType
	Shape []int
	Dir   Dir
}

// NumElems reports the parameter's element count.
func (p *Param) NumElems() int {
	n := 1
	for _, d := range p.Shape {
		n *= d
	}
	return n
}

// SizeBytes reports the parameter's payload size.
func (p *Param) SizeBytes() int { return p.NumElems() * p.DType.Size() }

// Stage is one step of a kernel. Stages run in order; each names the
// parameters it reads and the single parameter it writes.
type Stage interface {
	// Kind returns a short operator name ("map", "reduce", "matmul", ...).
	Kind() string
	// Reads lists the parameter names the stage consumes.
	Reads() []string
	// Writes names the parameter the stage produces.
	Writes() string
	// Validate checks the stage against the kernel's parameter table.
	Validate(k *Kernel) error
	// Run executes the stage over materialized tensors.
	Run(env map[string]*tensor.Tensor) error
	// Stats reports the stage's work metrics for the cost models.
	Stats(k *Kernel) StageStats
}

// StageStats captures the work a stage performs, in units the CPU and DRX
// cost models consume.
type StageStats struct {
	// Elems is the number of output elements produced.
	Elems int64
	// Ops is the number of arithmetic operations (per the expression
	// tree; multiply-accumulate counts as 2).
	Ops int64
	// BytesIn and BytesOut are the streaming traffic of the stage.
	BytesIn  int64
	BytesOut int64
	// VectorFriendly distinguishes stages with unit-stride inner loops
	// (map, typecast, matmul) from permutation-heavy stages (transpose,
	// strided gather) that defeat hardware prefetchers.
	VectorFriendly bool
}

// Add accumulates s2 into s.
func (s *StageStats) Add(s2 StageStats) {
	s.Elems += s2.Elems
	s.Ops += s2.Ops
	s.BytesIn += s2.BytesIn
	s.BytesOut += s2.BytesOut
}

// Kernel is a complete restructuring program: typed parameters plus an
// ordered list of stages. A kernel is immutable once built; mutating
// Params or Stages after the first Fingerprint call is not supported.
type Kernel struct {
	Name   string
	Params []Param
	Stages []Stage

	// fp memoizes Fingerprint. Rendering stage structure goes through
	// fmt's reflection and costs about as much as a small compile, which
	// would cancel the compile cache's win on the dispatch hot loop;
	// pipelines hold one *Kernel per hop and enqueue it repeatedly, so
	// one rendering per kernel amortizes to nothing. An atomic pointer
	// keeps a concurrent first call safe: racing computations produce
	// identical strings, so last-write-wins is harmless.
	fp atomic.Pointer[string]
}

// Signature identifies the kernel's name and exact geometry: its
// parameters' names, dtypes and shapes. It says nothing about the
// stages, so two kernels with equal signatures may compile to different
// DRX programs with different timings, and a signature is not a sound
// key for caching compiled artifacts or timings — Fingerprint is.
func (k *Kernel) Signature() string {
	var b strings.Builder
	b.WriteString(k.Name)
	for i := range k.Params {
		p := &k.Params[i]
		fmt.Fprintf(&b, "|%s:%v%v", p.Name, p.DType, p.Shape)
	}
	return b.String()
}

// Fingerprint extends Signature with the structure of every stage —
// kind, operand wiring, access matrices, expression trees. Two kernels
// with equal fingerprints are the same program, so the fingerprint is a
// sound key for caching *compiled* artifacts (internal/drxc keys its
// process-wide program cache on it). Signature alone is not: ad-hoc
// kernels (fuzzers, user programs) can reuse a name and geometry with
// different stages.
func (k *Kernel) Fingerprint() string {
	if p := k.fp.Load(); p != nil {
		return *p
	}
	var b strings.Builder
	b.WriteString(k.Signature())
	for _, s := range k.Stages {
		// Render the stage's concrete value, not the interface: fmt's
		// 'v' verb prefers a Stringer, and stage String methods are
		// compact diagnostics that omit fields (*MapStage.String drops
		// Ins and Accs — cache poison). Dereferencing first strips a
		// pointer-receiver String from the method set, so %+v falls
		// through to field-by-field reflection: every exported field —
		// operand wiring, access matrices — lands in the key
		// deterministically, while Expr trees still render completely
		// via their (value-receiver, lossless) String methods.
		v := reflect.ValueOf(s)
		for v.Kind() == reflect.Pointer && !v.IsNil() {
			v = v.Elem()
		}
		fmt.Fprintf(&b, "|%T%+v", s, v.Interface())
	}
	s := b.String()
	k.fp.Store(&s)
	return s
}

// Param looks up a parameter by name.
func (k *Kernel) Param(name string) (*Param, bool) {
	for i := range k.Params {
		if k.Params[i].Name == name {
			return &k.Params[i], true
		}
	}
	return nil, false
}

// Inputs returns the kernel's In parameters in declaration order.
func (k *Kernel) Inputs() []*Param { return k.byDir(In) }

// Outputs returns the kernel's Out parameters in declaration order.
func (k *Kernel) Outputs() []*Param { return k.byDir(Out) }

func (k *Kernel) byDir(d Dir) []*Param {
	var out []*Param
	for i := range k.Params {
		if k.Params[i].Dir == d {
			out = append(out, &k.Params[i])
		}
	}
	return out
}

// Stats aggregates stage statistics over the whole kernel.
func (k *Kernel) Stats() StageStats {
	var total StageStats
	for _, s := range k.Stages {
		total.Add(s.Stats(k))
	}
	return total
}

// Validate checks internal consistency: unique parameter names, stages
// referencing declared parameters, no stage writing an In parameter, and
// per-stage shape agreement.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("restructure: kernel has no name")
	}
	seen := make(map[string]bool, len(k.Params))
	for _, p := range k.Params {
		if p.Name == "" {
			return fmt.Errorf("restructure: %s: unnamed parameter", k.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("restructure: %s: duplicate parameter %q", k.Name, p.Name)
		}
		seen[p.Name] = true
		for _, d := range p.Shape {
			if d <= 0 {
				return fmt.Errorf("restructure: %s: parameter %q has non-positive dim", k.Name, p.Name)
			}
		}
	}
	if len(k.Stages) == 0 {
		return fmt.Errorf("restructure: %s: kernel has no stages", k.Name)
	}
	written := make(map[string]bool)
	for i, s := range k.Stages {
		for _, r := range s.Reads() {
			p, ok := k.Param(r)
			if !ok {
				return fmt.Errorf("restructure: %s: stage %d reads undeclared %q", k.Name, i, r)
			}
			if p.Dir != In && !written[r] {
				return fmt.Errorf("restructure: %s: stage %d reads %q before it is written", k.Name, i, r)
			}
		}
		w := s.Writes()
		p, ok := k.Param(w)
		if !ok {
			return fmt.Errorf("restructure: %s: stage %d writes undeclared %q", k.Name, i, w)
		}
		if p.Dir == In {
			return fmt.Errorf("restructure: %s: stage %d writes input parameter %q", k.Name, i, w)
		}
		if err := s.Validate(k); err != nil {
			return fmt.Errorf("restructure: %s: stage %d (%s): %w", k.Name, i, s.Kind(), err)
		}
		written[w] = true
	}
	for _, p := range k.Outputs() {
		if !written[p.Name] {
			return fmt.Errorf("restructure: %s: output %q never written", k.Name, p.Name)
		}
	}
	return nil
}
