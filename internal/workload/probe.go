package workload

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"

	"dmx/internal/tensor"
)

// A corpus writes an app's seeded input stream — the video bitstream,
// the hash-join gzip — to w as it generates it. Each app has one corpus
// and two sinks for it: a probe counts its bytes, and Inputs collects
// them into a buffer.
type corpus func(w io.Writer) error

// A probe is one data-dependent byte count a constructor needs for its
// latency model, read off a full run of the app's corpus into a byte
// counter, so nothing but the generator's own state (the encoder's, and
// the table's ring of row chunks) is held. The corpus is deterministic,
// so each (app, scale) probe is computed once per process and only the
// count is shared: every construction still returns a fresh Benchmark
// and Pipeline, which callers may mutate.
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
	// probeRuns counts corpus runs made to fill probes.
	probeRuns atomic.Int64
)

// probeSize returns the number of bytes gen writes, running gen at most
// once per (app, sc) in the process.
func probeSize(app string, sc Scale, gen corpus) (int64, error) {
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
		var n byteCount
		p.err = gen(&n)
		p.n = int64(n)
	})
	return p.n, p.err
}

// byteCount is the probe's sink: it keeps only the length of what is
// written to it.
type byteCount int64

func (c *byteCount) Write(b []byte) (int, error) {
	*c += byteCount(len(b))
	return len(b), nil
}

// streamInputs returns an Inputs function that runs gen into a buffer of
// the probed size and hands it over as the flat uint8 tensor `name`.
func streamInputs(name string, size int64, gen corpus) func() (map[string]*tensor.Tensor, error) {
	return func() (map[string]*tensor.Tensor, error) {
		buf := bytes.NewBuffer(make([]byte, 0, size))
		if err := gen(buf); err != nil {
			return nil, err
		}
		return map[string]*tensor.Tensor{name: tensor.FromBytes(buf.Bytes(), buf.Len())}, nil
	}
}
