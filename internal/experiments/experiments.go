package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"dmx/internal/dmxsys"
	"dmx/internal/workload"
)

// Concurrencies is the paper's co-running application sweep.
var Concurrencies = []int{1, 5, 10, 15}

// geomean of a positive series.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var acc float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		acc += math.Log(x)
	}
	return math.Exp(acc / float64(len(xs)))
}

// baseSuite caches the paper-scale suite so every figure shares one set
// of Benchmarks. The expensive part of a build — the corpus probes that
// count the video bitstream's and the hash-join gzip's bytes as their
// generators stream them — is memoized inside workload; the cache saves
// the per-construction accelerator set-up. The shared pointers are also
// what keys the grid of homogeneous runs: a copied Benchmark would be a
// cell of its own.
var baseSuite struct {
	once    sync.Once
	benches []*workload.Benchmark
	err     error
}

// suite returns n app instances cycling through the five benchmarks in
// Table I order. The first call builds the paper-scale suite and so
// pays the streamed corpus probes; every later one shares its
// Benchmarks.
func suite(n int) ([]*workload.Benchmark, error) {
	baseSuite.once.Do(func() {
		baseSuite.benches, baseSuite.err = workload.Suite(workload.PaperScale)
	})
	if baseSuite.err != nil {
		return nil, baseSuite.err
	}
	base := baseSuite.benches
	out := make([]*workload.Benchmark, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out, nil
}

// Warm front-loads the process-wide cache a parallel sweep would
// otherwise serialize on: the paper-scale benchmark suite, whose first
// build pays the corpus probes. workload.Suite runs the five
// constructors at once, so this takes about as long as deflating the
// hash-join table (about 0.6 s on one core; the probes count bytes as
// they stream and hold no corpus). DRX kernel timings fill on demand:
// timing walks the compiled program without moving data, so the
// figures pay a few milliseconds per distinct kernel and
// configuration. The grid of
// homogeneous runs fills on demand too, in the figures that read it:
// it is simulation work, not set-up. Calling Warm is optional: every
// generator computes what it needs on demand.
func Warm() error {
	_, err := suite(5)
	return err
}

// nbJob is one (concurrency, benchmark) sweep cell — the inner-loop
// unit most figures parallelize over.
type nbJob struct {
	n     int
	bench *workload.Benchmark
}

// nbJobs enumerates Concurrencies × benches in the figures' original
// nesting order (concurrency outer, benchmark inner), so index-slotted
// results fold back identically to the sequential loops they replace.
func nbJobs(benches []*workload.Benchmark) []nbJob {
	jobs := make([]nbJob, 0, len(Concurrencies)*len(benches))
	for _, n := range Concurrencies {
		for _, bench := range benches {
			jobs = append(jobs, nbJob{n: n, bench: bench})
		}
	}
	return jobs
}

// grid holds the homogeneous runs Figs. 3 and 11-15 all read: one cell
// per placement and (n, benchmark) job, simulated once per process by
// whichever figure reads it first (the once-per-key pattern of
// baseSuite). Cells fill on demand, never in Warm, and their reports
// are shared, so readers treat them as read-only.
var grid = struct {
	mu    sync.Mutex
	cells map[gridKey]*gridCell
}{cells: make(map[gridKey]*gridCell)}

type gridKey struct {
	p dmxsys.Placement
	j nbJob
}

type gridCell struct {
	once sync.Once
	rep  dmxsys.RunReport
	err  error
}

// homogeneousRun returns the run of j.n co-running copies of j.bench
// under placement p (the paper's per-benchmark bars), from the grid.
func homogeneousRun(p dmxsys.Placement, j nbJob) (dmxsys.RunReport, error) {
	k := gridKey{p, j}
	grid.mu.Lock()
	c := grid.cells[k]
	if c == nil {
		c = &gridCell{}
		grid.cells[k] = c
	}
	grid.mu.Unlock()
	c.once.Do(func() {
		copies := make([]*workload.Benchmark, j.n)
		for i := range copies {
			copies[i] = j.bench
		}
		c.rep, c.err = runSystem(p, copies)
	})
	return c.rep, c.err
}

// runSystem simulates n concurrent instances of the given benchmarks
// under a placement.
func runSystem(p dmxsys.Placement, benches []*workload.Benchmark) (dmxsys.RunReport, error) {
	cfg := dmxsys.DefaultConfig(p)
	return runSystemCfg(cfg, benches)
}

func runSystemCfg(cfg dmxsys.Config, benches []*workload.Benchmark) (dmxsys.RunReport, error) {
	pipes := make([]*dmxsys.Pipeline, len(benches))
	for i, b := range benches {
		pipes[i] = b.Pipeline
	}
	sys, err := dmxsys.New(cfg, pipes)
	if err != nil {
		return dmxsys.RunReport{}, err
	}
	return sys.Run()
}

// table is a tiny fixed-width text table builder shared by Render
// methods.
type table struct {
	b      strings.Builder
	widths []int
}

func newTable(title string, headers ...string) *table {
	t := &table{}
	t.b.WriteString(title)
	t.b.WriteByte('\n')
	t.widths = make([]int, len(headers))
	for i, h := range headers {
		t.widths[i] = len(h) + 2
		if t.widths[i] < 12 {
			t.widths[i] = 12
		}
	}
	t.row(headers...)
	return t
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		w := 12
		if i < len(t.widths) {
			w = t.widths[i]
		}
		fmt.Fprintf(&t.b, "%-*s", w, c)
	}
	t.b.WriteByte('\n')
}

func (t *table) rowf(format string, args ...any) {
	fmt.Fprintf(&t.b, format, args...)
	t.b.WriteByte('\n')
}

func (t *table) String() string { return t.b.String() }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
