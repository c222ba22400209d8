package workload

import (
	"fmt"
	"sync"

	"dmx/internal/dmxsys"
	"dmx/internal/restructure"
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
// Table I order, through Build. Construction is cheap except for the
// first paper-scale build in a process, which pays the two corpus probes
// (probeSize): the hash-join's deflate, about 0.6 s on one core, and the
// video bitstream, about 50 ms, which Build runs alongside it. The
// probes stream each corpus into a byte counter, so they cost time, not
// memory: no table, blob or frame is held.
func Suite(sc Scale) ([]*Benchmark, error) {
	return Build(sc, Names()[:tableI]...)
}

// Build returns the named workloads at the given scale, in the order
// named; a name given more than once yields one shared Benchmark. Each
// distinct app's constructor runs on its own goroutine, so a cold
// paper-scale build takes about as long as its slowest probe. This is a
// process-wide memo fill, not a sweep, so it ignores the sweep worker
// count: each constructor seeds its own RNGs and each probe fills once
// per process, so the result is the same however the constructors are
// scheduled. Build returns once every constructor has; if several fail,
// the error is the first in name order.
func Build(sc Scale, names ...string) ([]*Benchmark, error) {
	slot := make(map[string]int, len(names))
	var builds []func(Scale) (*Benchmark, error)
	for _, name := range names {
		if _, ok := slot[name]; ok {
			continue
		}
		build, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("workload: unknown app %q", name)
		}
		slot[name] = len(builds)
		builds = append(builds, build)
	}
	built := make([]*Benchmark, len(builds))
	errs := make([]error, len(builds))
	var wg sync.WaitGroup
	wg.Add(len(builds))
	for j, build := range builds {
		go func() {
			defer wg.Done()
			built[j], errs[j] = build(sc)
		}()
	}
	wg.Wait()
	// Distinct apps are slotted in order of first mention, so the first
	// failing slot is the first failure in name order.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]*Benchmark, len(names))
	for i, name := range names {
		out[i] = built[slot[name]]
	}
	return out, nil
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
