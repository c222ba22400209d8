package workload

import (
	"fmt"

	"dmx/internal/dmxsys"
	"dmx/internal/restructure"
	"dmx/internal/sweep"
	"dmx/internal/tensor"
)

// Benchmark is one end-to-end application.
type Benchmark struct {
	Name string
	// Pipeline drives the system simulator.
	Pipeline *dmxsys.Pipeline
	// Inputs generates the deterministic input tensors of the first
	// kernel (including any constant weights the hops consume).
	Inputs func() (map[string]*tensor.Tensor, error)
	// Exec runs the full functional chain — kernels on their accel
	// implementations, hops on the reference interpreter — returning the
	// final kernel's outputs.
	Exec func() (map[string]*tensor.Tensor, error)
}

// chain executes stage 0 → hop 0 → stage 1 → ... functionally. binds maps
// each hop's restructured outputs (and any extra constants) into the next
// kernel's input names.
func chain(b *Benchmark, hopConsts []map[string]*tensor.Tensor,
	bind []func(prev map[string]*tensor.Tensor) map[string]*tensor.Tensor) func() (map[string]*tensor.Tensor, error) {

	return func() (map[string]*tensor.Tensor, error) {
		cur, err := b.Inputs()
		if err != nil {
			return nil, err
		}
		p := b.Pipeline
		for k, st := range p.Stages {
			out, err := st.Accel.Run(cur)
			if err != nil {
				return nil, fmt.Errorf("workload %s: stage %d (%s): %w", b.Name, k, st.Accel.Name, err)
			}
			if k == len(p.Stages)-1 {
				return out, nil
			}
			hopIn := bind[2*k](out)
			for name, t := range hopConsts[k] {
				hopIn[name] = t
			}
			hopOut, err := restructure.Run(p.Hops[k].Kernel, hopIn)
			if err != nil {
				return nil, fmt.Errorf("workload %s: hop %d: %w", b.Name, k, err)
			}
			cur = bind[2*k+1](hopOut)
		}
		return cur, nil
	}
}

// passthrough renames tensors between stage/hop boundaries.
func passthrough(pairs ...string) func(map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	if len(pairs)%2 != 0 {
		panic("workload: passthrough needs from,to pairs")
	}
	return func(in map[string]*tensor.Tensor) map[string]*tensor.Tensor {
		out := make(map[string]*tensor.Tensor, len(pairs)/2)
		for i := 0; i < len(pairs); i += 2 {
			t, ok := in[pairs[i]]
			if !ok {
				panic(fmt.Sprintf("workload: binding: %q absent (have %v)", pairs[i], keys(in)))
			}
			out[pairs[i+1]] = t
		}
		return out
	}
}

func keys(m map[string]*tensor.Tensor) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Suite returns all five Table I benchmarks at the given scale, in
// Table I order. The five constructors are independent, so they run on
// the sweep worker pool (a plain loop at one worker); each seeds its own
// RNGs, so the result is identical to a sequential build. Construction
// is cheap except for the first paper-scale build in a process, which
// pays the two corpus probes (probeSize) — almost all of it deflating
// the hash-join table. The probes stream each corpus into a byte
// counter, so they cost time, not memory: no table, blob or frame is
// held.
func Suite(sc Scale) ([]*Benchmark, error) {
	return sweep.Map(apps[:tableI], func(_ int, a app) (*Benchmark, error) {
		return a.build(sc)
	})
}

// app is one named workload constructor.
type app struct {
	name  string
	build func(Scale) (*Benchmark, error)
}

// apps is every workload this package builds: the five Table I
// benchmarks in Table I order (what Suite builds), then the Fig. 16
// three-kernel extension and the generative-AI chain.
var apps = []app{
	{"video-surveillance", VideoSurveillance},
	{"sound-detection", SoundDetection},
	{"brain-stimulation", BrainStimulation},
	{"personal-info-redaction", PersonalInfoRedaction},
	{"database-hash-join", DatabaseHashJoin},
	{"pir-ner", PIRWithNER},
	{"genai-rag", GenAIRAG},
}

// tableI is how many of apps' leading entries are Table I benchmarks.
const tableI = 5

// Names lists every workload name in table order.
func Names() []string {
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.name
	}
	return names
}

// Lookup returns the named workload's constructor.
func Lookup(name string) (func(Scale) (*Benchmark, error), bool) {
	for _, a := range apps {
		if a.name == name {
			return a.build, true
		}
	}
	return nil, false
}

// Scale selects workload geometry. PaperScale matches the 6–16 MB
// batches of Table I; TestScale shrinks everything so functional chains
// run in milliseconds.
type Scale int

// Scales.
const (
	PaperScale Scale = iota
	TestScale
)
