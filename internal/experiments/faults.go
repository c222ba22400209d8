package experiments

import (
	"fmt"

	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/sim"
	"dmx/internal/sweep"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// faultMTBFs is the fault-intensity axis: mean time between DRX outages,
// from rare (one outage per 20 ms of virtual time) to constant churn.
// Link incidents and accelerator stalls scale with the same axis at 4x
// the MTBF, so every recovery mechanism is exercised at every point.
var faultMTBFs = []sim.Duration{
	20 * sim.Millisecond,
	10 * sim.Millisecond,
	5 * sim.Millisecond,
	2 * sim.Millisecond,
	sim.Millisecond,
}

// faultLoadFraction drives the serving load at a sub-saturation rate so
// availability losses are attributable to faults, not queueing collapse.
const faultLoadFraction = 0.75

// faultRequests is the per-point request count.
const faultRequests = 64

// FaultPoint is one cell of the availability-vs-fault-rate curve.
type FaultPoint struct {
	// MTBF is the mean time between DRX outages; Rate is its inverse in
	// incidents per second of virtual time.
	MTBF sim.Duration
	Rate float64
	// Availability is completed/issued; DegradedShare is the fraction of
	// completions that fell back to CPU-mediated restructuring.
	Availability  float64
	DegradedShare float64
	Retries       int
	Timeouts      int
	CleanP99      sim.Duration
	DegradedP99   sim.Duration
}

// FaultCurve is one benchmark's graceful-degradation behavior under
// increasing fault pressure on the bump-in-the-wire placement.
type FaultCurve struct {
	Bench  string
	Points []FaultPoint
}

// FaultResult is the fault-injection experiment: availability and
// degraded-completion share vs fault rate, one curve per benchmark.
type FaultResult struct {
	Curves []FaultCurve
}

// faultJob is one (benchmark, MTBF) sweep cell.
type faultJob struct {
	bench    *workload.Benchmark
	capacity float64
	mtbf     sim.Duration
}

// faultPlan builds the injection plan for one fault-intensity point:
// DRX outages at the axis MTBF, link incidents and accelerator stalls
// at 4x, plus a 1% transient restructure error rate. The seed is fixed
// so the whole experiment is reproducible.
func faultPlan(mtbf sim.Duration) *faults.Plan {
	return &faults.Plan{
		Seed:              1,
		DRXMTBF:           mtbf,
		DRXRepair:         200 * sim.Microsecond,
		TransientProb:     0.01,
		LinkMTBF:          4 * mtbf,
		LinkRepair:        100 * sim.Microsecond,
		LinkDegradeFactor: 0.25,
		StallMTBF:         4 * mtbf,
		StallRepair:       100 * sim.Microsecond,
	}
}

// Faults runs the fault-injection experiment: for every Table I
// benchmark on the bump-in-the-wire placement, measure the capacity
// bound, then drive Poisson load at 75% of it while sweeping fault
// intensity. At each point the report records availability, the share
// of completions that degraded to CPU restructuring, and the clean vs
// degraded tail latency — the graceful-degradation story in one table.
// The (benchmark x MTBF) cells are independent simulations and run on
// the sweep worker pool.
func Faults() (*FaultResult, error) {
	benches, err := suite(5)
	if err != nil {
		return nil, err
	}
	res := &FaultResult{Curves: make([]FaultCurve, len(benches))}
	var jobs []faultJob
	for i, b := range benches {
		rep, err := runSystem(dmxsys.BumpInTheWire, benches[i:i+1])
		if err != nil {
			return nil, err
		}
		ar := rep.Apps[0]
		if ar.Bottleneck <= 0 {
			return nil, fmt.Errorf("experiments: %s recorded no bottleneck occupancy", b.Name)
		}
		res.Curves[i] = FaultCurve{Bench: b.Name}
		capacity := ar.Throughput()
		for _, m := range faultMTBFs {
			jobs = append(jobs, faultJob{bench: b, capacity: capacity, mtbf: m})
		}
	}
	points, err := sweep.Map(jobs, func(_ int, j faultJob) (FaultPoint, error) {
		cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
		cfg.Faults = faultPlan(j.mtbf)
		cfg.Retry = faults.DefaultRetry()
		sys, err := dmxsys.New(cfg, []*dmxsys.Pipeline{j.bench.Pipeline})
		if err != nil {
			return FaultPoint{}, err
		}
		lr, err := sys.RunLoad(traffic.Spec{
			Arrival:  traffic.Poisson,
			Rate:     faultLoadFraction * j.capacity,
			Requests: faultRequests,
			Seed:     7,
		})
		if err != nil {
			return FaultPoint{}, err
		}
		al := lr.PerApp[0]
		p := FaultPoint{
			MTBF:        j.mtbf,
			Rate:        1 / j.mtbf.Seconds(),
			Retries:     al.Retries,
			Timeouts:    al.Timeouts,
			CleanP99:    al.CleanP99,
			DegradedP99: al.DegradedP99,
		}
		if al.Requests > 0 {
			p.Availability = float64(al.Completed) / float64(al.Requests)
		}
		if al.Completed > 0 {
			p.DegradedShare = float64(al.Degraded) / float64(al.Completed)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range res.Curves {
		res.Curves[i].Points = points[i*len(faultMTBFs) : (i+1)*len(faultMTBFs)]
	}
	return res, nil
}

// Render emits one availability table per benchmark.
func (r *FaultResult) Render() string {
	t := newTable("Faults: availability vs fault rate (Poisson 0.75x capacity, Bump-in-the-Wire)",
		"", "DRX MTBF", "faults/s", "avail", "degraded", "retries", "timeouts", "clean p99", "degraded p99")
	for _, c := range r.Curves {
		t.rowf("%s", c.Bench)
		for _, p := range c.Points {
			t.row("",
				p.MTBF.String(),
				fmt.Sprintf("%.4g", p.Rate),
				fmt.Sprintf("%.4f", p.Availability),
				fmt.Sprintf("%.1f%%", 100*p.DegradedShare),
				fmt.Sprintf("%d", p.Retries),
				fmt.Sprintf("%d", p.Timeouts),
				p.CleanP99.String(),
				p.DegradedP99.String())
		}
	}
	return t.String()
}
