package workload

import (
	"sync"
	"sync/atomic"

	"dmx/internal/tensor"
)

// A probe is one data-dependent byte count a constructor needs for its
// latency model — the video bitstream size, the hash-join gzip size —
// read off a full run of the app's seeded input generator. The
// generator is deterministic, so each (app, scale) probe is computed
// once per process and only the count is shared: every construction
// still returns a fresh Benchmark and Pipeline, which callers may
// mutate.
type probe struct {
	once sync.Once
	n    int64
	err  error
}

type probeKey struct {
	app string
	sc  Scale
}

var (
	probeMu sync.Mutex
	probes  = map[probeKey]*probe{}
	// probeRuns counts generator runs made to fill probes.
	probeRuns atomic.Int64
)

// probeSize returns the byte size of gen's input tensor `name`, running
// gen at most once per (app, sc) in the process.
func probeSize(app string, sc Scale, name string, gen func() (map[string]*tensor.Tensor, error)) (int64, error) {
	key := probeKey{app, sc}
	probeMu.Lock()
	p := probes[key]
	if p == nil {
		p = new(probe)
		probes[key] = p
	}
	probeMu.Unlock()
	p.once.Do(func() {
		probeRuns.Add(1)
		in, err := gen()
		if err != nil {
			p.err = err
			return
		}
		p.n = int64(in[name].SizeBytes())
	})
	return p.n, p.err
}
