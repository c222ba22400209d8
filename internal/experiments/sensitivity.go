package experiments

import (
	"fmt"

	"dmx/internal/dmxsys"
	"dmx/internal/pcie"
	"dmx/internal/sim"
	"dmx/internal/sweep"
	"dmx/internal/workload"
)

// Fig16Result is the three-kernel scalability study: Personal Info
// Redaction extended with BERT NER.
type Fig16Result struct {
	// KernelShare[config][n] is the kernel-time fraction of end-to-end
	// runtime (the paper reports DMX restores it to 93.7–97.2%).
	KernelShare map[string]map[int]float64
	// Speedup[n] is DMX over Multi-Axl.
	Speedup map[int]float64
}

// fig16Cell is one concurrency point of the three-kernel study.
type fig16Cell struct {
	baseName, dmxName   string
	baseShare, dmxShare float64
	speedup             float64
}

// Fig16 runs the three-kernel pipeline across the concurrency sweep,
// one concurrency point per sweep worker. Every cell runs copies of one
// benchmark, as homogeneousRun does, so each plan validates and times
// the pipeline once.
func Fig16() (*Fig16Result, error) {
	pirner, err := workload.PIRWithNER(workload.PaperScale)
	if err != nil {
		return nil, err
	}
	cells, err := sweep.Map(Concurrencies, func(_ int, n int) (fig16Cell, error) {
		benches := make([]*workload.Benchmark, n)
		for i := range benches {
			benches[i] = pirner
		}
		base, err := runSystem(dmxsys.MultiAxl, benches)
		if err != nil {
			return fig16Cell{}, err
		}
		dmx, err := runSystem(dmxsys.BumpInTheWire, benches)
		if err != nil {
			return fig16Cell{}, err
		}
		var cell fig16Cell
		cell.baseShare, _, _ = base.ComponentShares()
		cell.dmxShare, _, _ = dmx.ComponentShares()
		cell.baseName = base.Placement.String()
		cell.dmxName = dmx.Placement.String()
		cell.speedup = base.MeanTotal().Seconds() / dmx.MeanTotal().Seconds()
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig16Result{
		KernelShare: map[string]map[int]float64{},
		Speedup:     make(map[int]float64),
	}
	for i, n := range Concurrencies {
		c := cells[i]
		for _, e := range []struct {
			name  string
			share float64
		}{{c.baseName, c.baseShare}, {c.dmxName, c.dmxShare}} {
			if res.KernelShare[e.name] == nil {
				res.KernelShare[e.name] = make(map[int]float64)
			}
			res.KernelShare[e.name][n] = e.share
		}
		res.Speedup[n] = c.speedup
	}
	return res, nil
}

// Render implements the experiment result interface.
func (r *Fig16Result) Render() string {
	t := newTable("Fig. 16: PIR + NER (three kernels, two restructuring hops)",
		"apps", "kernel share (Multi-Axl)", "kernel share (DMX)", "DMX speedup")
	t.widths = []int{12, 26, 22, 14}
	for _, n := range Concurrencies {
		t.row(fmt.Sprint(n),
			pct(r.KernelShare[dmxsys.MultiAxl.String()][n]),
			pct(r.KernelShare[dmxsys.BumpInTheWire.String()][n]),
			f2(r.Speedup[n])+"x")
	}
	return t.String()
}

// CollectiveSizes is the Fig. 17 accelerator-count sweep.
var CollectiveSizes = []int{4, 8, 16, 32}

// Fig17Result compares broadcast and all-reduce between the baseline and
// DMX across accelerator counts.
type Fig17Result struct {
	Broadcast map[int]float64 // n → speedup
	AllReduce map[int]float64
}

// Fig17 runs the collectives study. The payload mirrors the benchmark
// batch scale; all-reduce adds a DRX-side summation kernel. Every
// (size, configuration, operation) run is an isolated simulation, so all
// of them fan out on the sweep worker pool.
func Fig17() (*Fig17Result, error) {
	const payload = 8 << 20
	type job struct {
		n         int
		useDMX    bool
		allReduce bool
	}
	var jobs []job
	for _, n := range CollectiveSizes {
		// Enumerated in the sequential run order: baseline broadcast, DMX
		// broadcast, baseline all-reduce, DMX all-reduce.
		jobs = append(jobs,
			job{n, false, false}, job{n, true, false},
			job{n, false, true}, job{n, true, true})
	}
	secs, err := sweep.Map(jobs, func(_ int, j job) (float64, error) {
		cs, err := dmxsys.NewCollective(dmxsys.CollectiveConfig{
			Accels: j.n,
			Bytes:  payload,
			Reduce: j.allReduce,
			UseDMX: j.useDMX,
			Sys:    dmxsys.DefaultConfig(dmxsys.BumpInTheWire),
		})
		if err != nil {
			return 0, err
		}
		var d sim.Duration
		if j.allReduce {
			d, err = cs.AllReduce()
		} else {
			d, err = cs.Broadcast()
		}
		if err != nil {
			return 0, err
		}
		return d.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig17Result{
		Broadcast: make(map[int]float64),
		AllReduce: make(map[int]float64),
	}
	for i, n := range CollectiveSizes {
		g := secs[4*i : 4*i+4]
		res.Broadcast[n] = g[0] / g[1]
		res.AllReduce[n] = g[2] / g[3]
	}
	return res, nil
}

// Render implements the experiment result interface.
func (r *Fig17Result) Render() string {
	t := newTable("Fig. 17: collective speedup, DMX over CPU-mediated baseline",
		"accelerators", "broadcast", "all-reduce")
	for _, n := range CollectiveSizes {
		t.row(fmt.Sprint(n), f2(r.Broadcast[n])+"x", f2(r.AllReduce[n])+"x")
	}
	return t.String()
}

// LaneSweep is the Fig. 18 RE-lane axis.
var LaneSweep = []int{32, 64, 128, 256}

// Fig18Result is the DRX compute-resource sensitivity.
type Fig18Result struct {
	// Speedup[lanes] = Multi-Axl mean latency / DMX mean latency with a
	// DRX of that many RE lanes (10 concurrent apps, as a loaded point).
	Speedup map[int]float64
}

// Fig18 sweeps the RE lane count. The Multi-Axl baseline and the four
// lane points are five independent simulations run on the worker pool.
func Fig18() (*Fig18Result, error) {
	const napps = 10
	benches, err := suite(napps)
	if err != nil {
		return nil, err
	}
	// Job 0 is the baseline; jobs 1..len(LaneSweep) are the lane points.
	lats, err := sweep.Map(make([]struct{}, 1+len(LaneSweep)), func(i int, _ struct{}) (float64, error) {
		if i == 0 {
			base, err := runSystem(dmxsys.MultiAxl, benches)
			if err != nil {
				return 0, err
			}
			return base.MeanTotal().Seconds(), nil
		}
		cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
		cfg.DRX = cfg.DRX.WithLanes(LaneSweep[i-1])
		rep, err := runSystemCfg(cfg, benches)
		if err != nil {
			return 0, err
		}
		return rep.MeanTotal().Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig18Result{Speedup: make(map[int]float64)}
	for i, lanes := range LaneSweep {
		res.Speedup[lanes] = lats[0] / lats[1+i]
	}
	return res, nil
}

// Render implements the experiment result interface.
func (r *Fig18Result) Render() string {
	t := newTable("Fig. 18: DMX speedup vs DRX RE lanes (10 apps)",
		"RE lanes", "speedup")
	for _, lanes := range LaneSweep {
		t.row(fmt.Sprint(lanes), f2(r.Speedup[lanes])+"x")
	}
	return t.String()
}

// GenSweep is the Fig. 19 PCIe-generation axis.
var GenSweep = []pcie.Gen{pcie.Gen3, pcie.Gen4, pcie.Gen5}

// Fig19Result is the interconnect-generation sensitivity.
type Fig19Result struct {
	// Speedup[gen][n] = Multi-Axl/DMX on a fabric of that generation.
	Speedup map[pcie.Gen]map[int]float64
}

// Fig19 sweeps the PCIe generation for both baseline and DMX, fanning
// the (generation × concurrency) grid out on the worker pool.
func Fig19() (*Fig19Result, error) {
	type job struct {
		g pcie.Gen
		n int
	}
	var jobs []job
	for _, g := range GenSweep {
		for _, n := range Concurrencies {
			jobs = append(jobs, job{g, n})
		}
	}
	vals, err := sweep.Map(jobs, func(_ int, j job) (float64, error) {
		benches, err := suite(j.n)
		if err != nil {
			return 0, err
		}
		baseCfg := dmxsys.DefaultConfig(dmxsys.MultiAxl)
		baseCfg.Gen = j.g
		// Newer platforms also expose more root-port lanes (the
		// paper's second effect: baselines reduce their CPU-link
		// contention on Gen4/Gen5 hosts).
		if j.g != pcie.Gen3 {
			baseCfg.UplinkLanes = 16
		}
		base, err := runSystemCfg(baseCfg, benches)
		if err != nil {
			return 0, err
		}
		dmxCfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
		dmxCfg.Gen = j.g
		if j.g != pcie.Gen3 {
			dmxCfg.UplinkLanes = 16
		}
		rep, err := runSystemCfg(dmxCfg, benches)
		if err != nil {
			return 0, err
		}
		return base.MeanTotal().Seconds() / rep.MeanTotal().Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig19Result{Speedup: make(map[pcie.Gen]map[int]float64)}
	for i, j := range jobs {
		if res.Speedup[j.g] == nil {
			res.Speedup[j.g] = make(map[int]float64)
		}
		res.Speedup[j.g][j.n] = vals[i]
	}
	return res, nil
}

// Render implements the experiment result interface.
func (r *Fig19Result) Render() string {
	t := newTable("Fig. 19: DMX speedup across PCIe generations",
		"generation", "1 app", "5 apps", "10 apps", "15 apps")
	for _, g := range GenSweep {
		cells := []string{g.String()}
		for _, n := range Concurrencies {
			cells = append(cells, f2(r.Speedup[g][n])+"x")
		}
		t.row(cells...)
	}
	return t.String()
}
