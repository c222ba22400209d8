package experiments

import (
	"fmt"

	"dmx/internal/cpu"
	"dmx/internal/dmxsys"
	"dmx/internal/sweep"
)

// Table1Result inventories the five benchmarks (Table I).
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one benchmark's line.
type Table1Row struct {
	Benchmark     string
	Kernel1       string
	Restructuring string
	Kernel2       string
	BatchMB       float64
}

// Table1 builds the benchmark inventory from the live workload suite.
func Table1() (*Table1Result, error) {
	benches, err := suite(5)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	for _, b := range benches {
		p := b.Pipeline
		row := Table1Row{
			Benchmark:     b.Name,
			Kernel1:       p.Stages[0].Accel.Name,
			Restructuring: p.Hops[0].Kernel.Name,
			Kernel2:       p.Stages[1].Accel.Name,
			BatchMB:       float64(p.Hops[0].InBytes) / (1 << 20),
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render implements the common experiment result interface.
func (r *Table1Result) Render() string {
	t := newTable("Table I: end-to-end benchmarks",
		"benchmark", "kernel 1", "restructuring", "kernel 2", "batch (MB)")
	for _, row := range r.Rows {
		t.row(row.Benchmark, row.Kernel1, row.Restructuring, row.Kernel2, f1(row.BatchMB))
	}
	return t.String()
}

// Fig3Result carries the motivation study: runtime breakdowns of the
// All-CPU and Multi-Axl configurations across the concurrency sweep
// (Fig. 3a) and the end-to-end vs per-kernel speedup gap (Fig. 3b).
type Fig3Result struct {
	Rows []Fig3Row
	// PerKernelSpeedup is the geometric-mean speedup the accelerators
	// deliver on kernels alone (the paper's 6.5×).
	PerKernelSpeedup float64
	// EndToEnd holds Multi-Axl vs All-CPU speedups per concurrency.
	EndToEnd map[int]float64
}

// Fig3Row is one (config, concurrency) breakdown.
type Fig3Row struct {
	Config          string
	Apps            int
	KernelShare     float64
	RestructShare   float64
	MovementShare   float64
	MeanLatencySecs float64
}

// Fig3 runs the motivation experiment.
func Fig3() (*Fig3Result, error) {
	res := &Fig3Result{EndToEnd: make(map[int]float64)}
	var speedups []float64
	benches, err := suite(5)
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		for _, st := range b.Pipeline.Stages {
			speedups = append(speedups, st.Accel.Speedup)
		}
	}
	res.PerKernelSpeedup = geomean(speedups)

	rows, ratios, err := breakdownSweep(dmxsys.AllCPU, dmxsys.MultiAxl)
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.EndToEnd = ratios
	return res, nil
}

// breakdownCell is one (concurrency, benchmark) measurement under the
// two compared placements: component shares and mean latency for each.
type breakdownCell struct {
	k, re, mv, lat [2]float64
}

// breakdownSweep runs every (concurrency × benchmark) cell of the
// Concurrencies sweep homogeneously under two configurations on the
// sweep worker pool, then folds per concurrency: component shares
// averaged across benchmarks, mean latency and the A-over-B latency
// ratio geomeaned across benchmarks. Rows come out grouped by
// concurrency, configuration A before B — the paper's bar order.
func breakdownSweep(a, bCfg dmxsys.Placement) ([]Fig3Row, map[int]float64, error) {
	benches, err := suite(5)
	if err != nil {
		return nil, nil, err
	}
	jobs := nbJobs(benches)
	cells, err := sweep.Map(jobs, func(_ int, j nbJob) (breakdownCell, error) {
		var cell breakdownCell
		for pi, p := range []dmxsys.Placement{a, bCfg} {
			rep, err := homogeneousRun(p, j)
			if err != nil {
				return cell, err
			}
			cell.k[pi], cell.re[pi], cell.mv[pi] = rep.ComponentShares()
			cell.lat[pi] = rep.MeanTotal().Seconds()
		}
		return cell, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []Fig3Row
	ratios := make(map[int]float64, len(Concurrencies))
	nb := len(benches)
	for base := 0; base < len(jobs); base += nb {
		n := jobs[base].n
		group := cells[base : base+nb]
		for pi, p := range []dmxsys.Placement{a, bCfg} {
			k := make([]float64, nb)
			re := make([]float64, nb)
			mv := make([]float64, nb)
			lat := make([]float64, nb)
			for i, c := range group {
				k[i], re[i], mv[i], lat[i] = c.k[pi], c.re[pi], c.mv[pi], c.lat[pi]
			}
			rows = append(rows, Fig3Row{
				Config:          p.String(),
				Apps:            n,
				KernelShare:     mean(k),
				RestructShare:   mean(re),
				MovementShare:   mean(mv),
				MeanLatencySecs: geomean(lat),
			})
		}
		rr := make([]float64, nb)
		for i, c := range group {
			rr[i] = c.lat[0] / c.lat[1]
		}
		ratios[n] = geomean(rr)
	}
	return rows, ratios, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Render implements the experiment result interface.
func (r *Fig3Result) Render() string {
	t := newTable("Fig. 3(a): runtime breakdown, All-CPU vs Multi-Axl",
		"config", "apps", "kernel", "restructure", "movement", "mean latency")
	for _, row := range r.Rows {
		t.row(row.Config, fmt.Sprint(row.Apps), pct(row.KernelShare),
			pct(row.RestructShare), pct(row.MovementShare),
			fmt.Sprintf("%.2f ms", row.MeanLatencySecs*1e3))
	}
	t.rowf("\nFig. 3(b): per-kernel accelerator speedup (geomean) = %.1fx", r.PerKernelSpeedup)
	for _, n := range Concurrencies {
		if v, ok := r.EndToEnd[n]; ok {
			t.rowf("  end-to-end Multi-Axl speedup over All-CPU, %2d apps = %.2fx", n, v)
		}
	}
	return t.String()
}

// Fig5Result is the restructuring characterization (top-down + MPKI).
type Fig5Result struct {
	Profiles []cpu.Profile
}

// Fig5 characterizes each benchmark's restructuring kernel on the host
// CPU model.
func Fig5() (*Fig5Result, error) {
	benches, err := suite(5)
	if err != nil {
		return nil, err
	}
	m := cpu.DefaultModel()
	res := &Fig5Result{}
	for _, b := range benches {
		p := m.Characterize(b.Pipeline.Hops[0].Kernel)
		p.Kernel = b.Name
		res.Profiles = append(res.Profiles, p)
	}
	return res, nil
}

// Render implements the experiment result interface.
func (r *Fig5Result) Render() string {
	t := newTable("Fig. 5: top-down breakdown of data restructuring on the host CPU",
		"benchmark", "frontend", "bad-spec", "BE-core", "BE-mem", "retiring", "L1I", "L1D", "L2")
	for _, p := range r.Profiles {
		t.row(p.Kernel,
			fmt.Sprintf("%.1f%%", p.FrontendPct), fmt.Sprintf("%.1f%%", p.BadSpecPct),
			fmt.Sprintf("%.1f%%", p.BackendCorePct), fmt.Sprintf("%.1f%%", p.BackendMemPct),
			fmt.Sprintf("%.1f%%", p.RetiringPct),
			f1(p.L1IMPKI), f1(p.L1DMPKI), f1(p.L2MPKI))
	}
	return t.String()
}
