package experiments

import (
	"fmt"
	"sort"

	"dmx/internal/dmxsys"
	"dmx/internal/sweep"
)

// Fig11Result is the headline latency comparison: DMX (bump-in-the-wire)
// speedup over the Multi-Axl baseline, per benchmark and on average,
// across the concurrency sweep.
type Fig11Result struct {
	// Speedup[n][bench] = baseline latency / DMX latency.
	Speedup map[int]map[string]float64
	// Average[n] is the geomean across benchmarks.
	Average map[int]float64
}

// Fig11 runs the headline experiment. Per the paper's per-benchmark
// bars, each benchmark is measured homogeneously: n concurrent instances
// of that application (a 15-app run uses 30 accelerators). The
// (concurrency × benchmark) cells are independent simulations and run on
// the sweep worker pool.
func Fig11() (*Fig11Result, error) {
	res := &Fig11Result{
		Speedup: make(map[int]map[string]float64),
		Average: make(map[int]float64),
	}
	benches, err := suite(5)
	if err != nil {
		return nil, err
	}
	jobs := nbJobs(benches)
	speedups, err := sweep.Map(jobs, func(_ int, j nbJob) (float64, error) {
		base, err := homogeneousRun(dmxsys.MultiAxl, j)
		if err != nil {
			return 0, err
		}
		dmx, err := homogeneousRun(dmxsys.BumpInTheWire, j)
		if err != nil {
			return 0, err
		}
		return base.MeanTotal().Seconds() / dmx.MeanTotal().Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		if res.Speedup[j.n] == nil {
			res.Speedup[j.n] = make(map[string]float64, len(benches))
		}
		res.Speedup[j.n][j.bench.Name] = speedups[i]
	}
	for i, n := 0, 0; i < len(jobs); i += len(benches) {
		n = jobs[i].n
		res.Average[n] = geomean(speedups[i : i+len(benches)])
	}
	return res, nil
}

// benchOrder returns the benchmark names of a speedup map in Table I
// order (falling back to sorted).
func benchOrder(m map[string]float64) []string {
	order := []string{"video-surveillance", "sound-detection", "brain-stimulation",
		"personal-info-redaction", "database-hash-join"}
	var out []string
	for _, name := range order {
		if _, ok := m[name]; ok {
			out = append(out, name)
		}
	}
	var extra []string
	for name := range m {
		found := false
		for _, o := range out {
			if o == name {
				found = true
			}
		}
		if !found {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// Render implements the experiment result interface.
func (r *Fig11Result) Render() string {
	t := newTable("Fig. 11: DMX speedup over Multi-Axl (latency)",
		"benchmark", "1 app", "5 apps", "10 apps", "15 apps")
	names := benchOrder(r.Speedup[1])
	for _, name := range names {
		cells := []string{name}
		for _, n := range Concurrencies {
			if v, ok := r.Speedup[n][name]; ok {
				cells = append(cells, f2(v)+"x")
			} else {
				cells = append(cells, "-")
			}
		}
		t.row(cells...)
	}
	cells := []string{"average (geomean)"}
	for _, n := range Concurrencies {
		cells = append(cells, f2(r.Average[n])+"x")
	}
	t.row(cells...)
	return t.String()
}

// Fig12Result is the runtime-breakdown comparison between Multi-Axl and
// DMX across concurrency.
type Fig12Result struct {
	Rows []Fig3Row // same shape as the motivation breakdown
}

// Fig12 measures component shares for baseline and DMX, averaged across
// homogeneous per-benchmark runs (the paper's bars are means over the
// five applications).
func Fig12() (*Fig12Result, error) {
	rows, _, err := breakdownSweep(dmxsys.MultiAxl, dmxsys.BumpInTheWire)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{Rows: rows}, nil
}

// Share returns the restructure share for a config at a concurrency.
func (r *Fig12Result) Share(config string, apps int) (float64, bool) {
	for _, row := range r.Rows {
		if row.Config == config && row.Apps == apps {
			return row.RestructShare, true
		}
	}
	return 0, false
}

// Render implements the experiment result interface.
func (r *Fig12Result) Render() string {
	t := newTable("Fig. 12: runtime breakdown, Multi-Axl (a) vs DMX (b)",
		"config", "apps", "kernel", "restructure", "movement", "mean latency")
	for _, row := range r.Rows {
		t.row(row.Config, fmt.Sprint(row.Apps), pct(row.KernelShare),
			pct(row.RestructShare), pct(row.MovementShare),
			fmt.Sprintf("%.2f ms", row.MeanLatencySecs*1e3))
	}
	return t.String()
}

// Fig13Result is the throughput-improvement experiment.
type Fig13Result struct {
	// Improvement[n][bench] = DMX throughput / baseline throughput.
	Improvement map[int]map[string]float64
	Average     map[int]float64
}

// Fig13 compares steady-state pipeline throughput across the
// (concurrency × benchmark) cells on the sweep worker pool.
func Fig13() (*Fig13Result, error) {
	res := &Fig13Result{
		Improvement: make(map[int]map[string]float64),
		Average:     make(map[int]float64),
	}
	benches, err := suite(5)
	if err != nil {
		return nil, err
	}
	jobs := nbJobs(benches)
	vals, err := sweep.Map(jobs, func(_ int, j nbJob) (float64, error) {
		base, err := homogeneousRun(dmxsys.MultiAxl, j)
		if err != nil {
			return 0, err
		}
		dmx, err := homogeneousRun(dmxsys.BumpInTheWire, j)
		if err != nil {
			return 0, err
		}
		// Throughput per app = 1 / slowest logical pipeline stage (the
		// paper's Sec. VII-A analysis), geomeaned over instances. The
		// serving experiment (Load) uses the measured occupancy bound
		// instead; this figure keeps the paper's stage metric.
		thr := func(rep dmxsys.RunReport) float64 {
			var xs []float64
			for _, a := range rep.Apps {
				xs = append(xs, 1/a.StageMax(len(j.bench.Pipeline.Stages)).Seconds())
			}
			return geomean(xs)
		}
		return thr(dmx) / thr(base), nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		if res.Improvement[j.n] == nil {
			res.Improvement[j.n] = make(map[string]float64, len(benches))
		}
		res.Improvement[j.n][j.bench.Name] = vals[i]
	}
	for i := 0; i < len(jobs); i += len(benches) {
		res.Average[jobs[i].n] = geomean(vals[i : i+len(benches)])
	}
	return res, nil
}

// Render implements the experiment result interface.
func (r *Fig13Result) Render() string {
	t := newTable("Fig. 13: DMX throughput improvement over Multi-Axl",
		"benchmark", "1 app", "5 apps", "10 apps", "15 apps")
	for _, name := range benchOrder(r.Improvement[1]) {
		cells := []string{name}
		for _, n := range Concurrencies {
			if v, ok := r.Improvement[n][name]; ok {
				cells = append(cells, f2(v)+"x")
			} else {
				cells = append(cells, "-")
			}
		}
		t.row(cells...)
	}
	cells := []string{"average (geomean)"}
	for _, n := range Concurrencies {
		cells = append(cells, f2(r.Average[n])+"x")
	}
	t.row(cells...)
	return t.String()
}
