package experiments

import (
	"fmt"

	"dmx/internal/dmxsys"
	"dmx/internal/sweep"
)

// placements under study in Figs. 14/15.
var placementSweep = []dmxsys.Placement{
	dmxsys.Integrated, dmxsys.Standalone, dmxsys.BumpInTheWire, dmxsys.PCIeIntegrated,
}

// placementCell runs one (concurrency, benchmark) cell: the Multi-Axl
// baseline plus every placement under study, returning the per-placement
// ratio of the given metric (baseline over placement).
func placementCell(j nbJob, sweepP []dmxsys.Placement, metric func(dmxsys.RunReport) float64) ([]float64, error) {
	base, err := homogeneousRun(dmxsys.MultiAxl, j)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(sweepP))
	for pi, p := range sweepP {
		rep, err := homogeneousRun(p, j)
		if err != nil {
			return nil, err
		}
		out[pi] = metric(base) / metric(rep)
	}
	return out, nil
}

// foldPlacements geomeans per-benchmark ratios into [placement][n] maps,
// preserving the sequential benchmark order within each concurrency.
func foldPlacements(jobs []nbJob, cells [][]float64, sweepP []dmxsys.Placement, nb int) map[dmxsys.Placement]map[int]float64 {
	out := make(map[dmxsys.Placement]map[int]float64, len(sweepP))
	for _, p := range sweepP {
		out[p] = make(map[int]float64, len(Concurrencies))
	}
	for base := 0; base < len(jobs); base += nb {
		n := jobs[base].n
		for pi, p := range sweepP {
			per := make([]float64, nb)
			for i, cell := range cells[base : base+nb] {
				per[i] = cell[pi]
			}
			out[p][n] = geomean(per)
		}
	}
	return out
}

// Fig14Result compares latency speedup (over Multi-Axl) across DRX
// placements and concurrency.
type Fig14Result struct {
	// Speedup[placement][n] = baseline mean latency / placement mean.
	Speedup map[dmxsys.Placement]map[int]float64
}

// Fig14 runs the placement study: per benchmark, n homogeneous
// instances under each placement; the reported number is the geometric
// mean of per-benchmark speedups over the Multi-Axl baseline. The
// (concurrency × benchmark) cells run on the sweep worker pool.
func Fig14() (*Fig14Result, error) {
	benches, err := suite(5)
	if err != nil {
		return nil, err
	}
	jobs := nbJobs(benches)
	cells, err := sweep.Map(jobs, func(_ int, j nbJob) ([]float64, error) {
		return placementCell(j, placementSweep, func(rep dmxsys.RunReport) float64 {
			return rep.MeanTotal().Seconds()
		})
	})
	if err != nil {
		return nil, err
	}
	return &Fig14Result{Speedup: foldPlacements(jobs, cells, placementSweep, len(benches))}, nil
}

// Render implements the experiment result interface.
func (r *Fig14Result) Render() string {
	t := newTable("Fig. 14: latency speedup over Multi-Axl by DRX placement",
		"placement", "1 app", "5 apps", "10 apps", "15 apps")
	for _, p := range placementSweep {
		cells := []string{p.String()}
		for _, n := range Concurrencies {
			cells = append(cells, f2(r.Speedup[p][n])+"x")
		}
		t.row(cells...)
	}
	return t.String()
}

// Fig15Result compares system-wide energy reduction (over Multi-Axl)
// across placements. PCIe-Integrated is excluded, as in the paper.
type Fig15Result struct {
	Reduction map[dmxsys.Placement]map[int]float64
}

// Fig15 runs the energy study.
func Fig15() (*Fig15Result, error) {
	sweepP := []dmxsys.Placement{dmxsys.Integrated, dmxsys.Standalone, dmxsys.BumpInTheWire}
	benches, err := suite(5)
	if err != nil {
		return nil, err
	}
	jobs := nbJobs(benches)
	cells, err := sweep.Map(jobs, func(_ int, j nbJob) ([]float64, error) {
		return placementCell(j, sweepP, func(rep dmxsys.RunReport) float64 {
			return rep.EnergyJ
		})
	})
	if err != nil {
		return nil, err
	}
	return &Fig15Result{Reduction: foldPlacements(jobs, cells, sweepP, len(benches))}, nil
}

// Render implements the experiment result interface.
func (r *Fig15Result) Render() string {
	t := newTable("Fig. 15: energy reduction over Multi-Axl by DRX placement",
		"placement", "1 app", "5 apps", "10 apps", "15 apps")
	for _, p := range []dmxsys.Placement{dmxsys.Integrated, dmxsys.Standalone, dmxsys.BumpInTheWire} {
		cells := []string{p.String()}
		for _, n := range Concurrencies {
			cells = append(cells, fmt.Sprintf("%.2fx", r.Reduction[p][n]))
		}
		t.row(cells...)
	}
	t.rowf("(PCIe-Integrated is not evaluated for energy, per the paper)")
	return t.String()
}
