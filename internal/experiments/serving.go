package experiments

import (
	"fmt"

	"dmx/internal/dmxsys"
	"dmx/internal/sim"
	"dmx/internal/sweep"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// loadFractions is the offered-load axis of the serving figure, as
// fractions of each benchmark's measured capacity bound. Points below
// 1.0 show the flat open-system latency; points above show queueing
// growth and the throughput plateau.
var loadFractions = []float64{0.25, 0.50, 0.75, 0.90, 1.10, 1.50, 3.00}

// loadRequests is the per-point request count: enough completions at the
// bottleneck pace to measure a steady-state rate, small enough that the
// full (benchmark x fraction) sweep stays interactive.
const loadRequests = 64

// LoadPoint is one cell of the latency-vs-offered-load curve.
type LoadPoint struct {
	// Fraction is the offered load relative to the capacity bound;
	// Offered and Achieved are absolute rates in requests per second.
	Fraction float64
	Offered  float64
	Achieved float64
	Mean     sim.Duration
	P99      sim.Duration
}

// LoadCurve is one benchmark's serving behavior under open-loop load on
// the bump-in-the-wire (DMX) placement.
type LoadCurve struct {
	Bench string
	// Capacity is the AppReport.Throughput bound (inverse of the
	// measured per-request bottleneck occupancy); Bottleneck names the
	// gating resource.
	Capacity   float64
	Bottleneck string
	Points     []LoadPoint
	// SaturationErr is the relative gap between the achieved rate at the
	// highest offered load and the capacity bound — the figure's
	// "plateau matches the analytical bound" check.
	SaturationErr float64
}

// LoadResult is the serving experiment: latency vs offered load per
// benchmark, one curve each.
type LoadResult struct {
	Curves []LoadCurve
}

// loadJob is one (benchmark, fraction) sweep cell.
type loadJob struct {
	bench    *workload.Benchmark
	capacity float64
	fraction float64
}

// Load runs the serving experiment: for every Table I benchmark on the
// bump-in-the-wire placement, measure the capacity bound from one closed
// run, then sweep open-loop offered load across loadFractions and record
// the latency distribution and achieved rate at each point. The
// (benchmark x fraction) cells are independent simulations and run on
// the sweep worker pool.
func Load() (*LoadResult, error) {
	benches, err := suite(5)
	if err != nil {
		return nil, err
	}
	res := &LoadResult{Curves: make([]LoadCurve, len(benches))}
	var jobs []loadJob
	for i, b := range benches {
		rep, err := runSystem(dmxsys.BumpInTheWire, benches[i:i+1])
		if err != nil {
			return nil, err
		}
		ar := rep.Apps[0]
		if ar.Bottleneck <= 0 {
			return nil, fmt.Errorf("experiments: %s recorded no bottleneck occupancy", b.Name)
		}
		res.Curves[i] = LoadCurve{
			Bench:      b.Name,
			Capacity:   ar.Throughput(),
			Bottleneck: ar.BottleneckResource,
		}
		for _, f := range loadFractions {
			jobs = append(jobs, loadJob{bench: b, capacity: res.Curves[i].Capacity, fraction: f})
		}
	}
	points, err := sweep.Map(jobs, func(_ int, j loadJob) (LoadPoint, error) {
		cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
		sys, err := dmxsys.New(cfg, []*dmxsys.Pipeline{j.bench.Pipeline})
		if err != nil {
			return LoadPoint{}, err
		}
		rate := j.fraction * j.capacity
		lr, err := sys.RunLoad(traffic.Spec{
			Arrival:  traffic.OpenLoop,
			Rate:     rate,
			Requests: loadRequests,
		})
		if err != nil {
			return LoadPoint{}, err
		}
		al := lr.PerApp[0]
		return LoadPoint{
			Fraction: j.fraction,
			Offered:  rate,
			Achieved: al.Achieved,
			Mean:     al.Mean,
			P99:      al.P99,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range res.Curves {
		c := &res.Curves[i]
		c.Points = points[i*len(loadFractions) : (i+1)*len(loadFractions)]
		last := c.Points[len(c.Points)-1]
		c.SaturationErr = (last.Achieved - c.Capacity) / c.Capacity
		if c.SaturationErr < 0 {
			c.SaturationErr = -c.SaturationErr
		}
	}
	return res, nil
}

// Render emits one table per benchmark plus the saturation check line.
func (r *LoadResult) Render() string {
	t := newTable("Serving: latency vs offered load (open-loop, Bump-in-the-Wire)",
		"", "load", "offered", "achieved", "mean", "p99")
	for _, c := range r.Curves {
		t.rowf("%s", c.Bench)
		for _, p := range c.Points {
			t.row("",
				fmt.Sprintf("%.2fx", p.Fraction),
				fmt.Sprintf("%.4g/s", p.Offered),
				fmt.Sprintf("%.4g/s", p.Achieved),
				p.Mean.String(),
				p.P99.String())
		}
		t.rowf("  capacity bound %.4g req/s (%s); plateau within %.2f%% of bound",
			c.Capacity, c.Bottleneck, 100*c.SaturationErr)
	}
	return t.String()
}
