package experiments

import (
	"fmt"

	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/sim"
	"dmx/internal/sweep"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// The cluster experiment is the fleet scaling figure: saturate a
// replicated bump-in-the-wire serving system with an open-loop arrival
// train far above one host's capacity and sweep the host count. The
// whole fleet shares one deterministic engine (replicas of one
// dmxsys.Plan behind the cluster router), so each point is a single
// event-ordered simulation and the curve is byte-identical at any sweep
// worker count.
//
// Throughput scales near-linearly while replicas are the bottleneck,
// then bends where the modeled network core saturates: the core link is
// provisioned to carry about clusterCoreHosts hosts' worth of request
// payload, so the 8-host point is network-bound — the cross-domain
// analogue of the paper's shared-uplink bottleneck (Sec. III), one
// level up the hierarchy.

// clusterHosts is the fleet-size axis.
var clusterHosts = []int{1, 2, 4, 8}

const (
	// clusterRequests is the per-point request count.
	clusterRequests = 192
	// clusterOverdrive is the offered rate in multiples of a single
	// host's capacity bound: high enough that even 8 replicas
	// stay saturated for the whole run.
	clusterOverdrive = 16.0
	// clusterCoreHosts provisions the network core in units of one
	// host's payload rate: the scaling curve is replica-bound below it
	// and core-bound above it.
	clusterCoreHosts = 5.5
	// clusterNetLat is the one-way propagation delay per message.
	clusterNetLat = 5 * sim.Microsecond
)

// ClusterPoint is one host count's measurement for one benchmark.
type ClusterPoint struct {
	Hosts     int
	Completed int
	// Throughput is completions over makespan (the run is one saturated
	// busy period); Speedup normalizes it to the 1-host point.
	Throughput float64
	Speedup    float64
	P99        sim.Duration
}

// ClusterCurve is one benchmark's host-count sweep.
type ClusterCurve struct {
	Bench string
	// CapOne is one host's capacity bound (req/s), the y-axis
	// unit the curve is read against.
	CapOne float64
	Points []ClusterPoint
}

// ClusterResult is the fleet scaling experiment.
type ClusterResult struct {
	Curves []ClusterCurve
}

// clusterJob is one (benchmark, hosts) sweep cell.
type clusterJob struct {
	bench *workload.Benchmark
	hosts int
	cap1  float64
}

// clusterRun builds a fresh fleet and drives one saturated load.
func clusterRun(j clusterJob) (ClusterPoint, error) {
	base := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	pipe := j.bench.Pipeline
	maxBytes := pipe.InputBytes
	if pipe.OutputBytes > maxBytes {
		maxBytes = pipe.OutputBytes
	}
	f, err := cluster.New(cluster.FleetConfig{
		Hosts: j.hosts,
		Base:  base,
		Net: cluster.NetConfig{
			CoreBytesPerSec: clusterCoreHosts * j.cap1 * float64(maxBytes),
			Latency:         clusterNetLat,
		},
	}, []*dmxsys.Pipeline{pipe})
	if err != nil {
		return ClusterPoint{}, err
	}
	rep, err := f.Run(traffic.Spec{
		Arrival:  traffic.OpenLoop,
		Rate:     clusterOverdrive * j.cap1,
		Requests: clusterRequests,
	})
	if err != nil {
		return ClusterPoint{}, err
	}
	al := rep.PerApp[0]
	p := ClusterPoint{Hosts: j.hosts, Completed: al.Completed, P99: al.P99}
	if s := rep.Makespan.Seconds(); s > 0 {
		p.Throughput = float64(al.Completed) / s
	}
	return p, nil
}

// Cluster runs the fleet scaling experiment. The (benchmark × hosts)
// cells are independent fleets and run on the sweep worker pool.
func Cluster() (*ClusterResult, error) {
	benches, err := batchBenches()
	if err != nil {
		return nil, err
	}
	var jobs []clusterJob
	for _, b := range benches {
		plan, err := dmxsys.NewPlan(dmxsys.DefaultConfig(dmxsys.BumpInTheWire),
			[]*dmxsys.Pipeline{b.Pipeline})
		if err != nil {
			return nil, err
		}
		caps, err := plan.Capacities()
		if err != nil {
			return nil, err
		}
		cap1 := caps[0].PerSecond
		for _, h := range clusterHosts {
			jobs = append(jobs, clusterJob{bench: b, hosts: h, cap1: cap1})
		}
	}
	points, err := sweep.Map(jobs, func(_ int, j clusterJob) (ClusterPoint, error) {
		return clusterRun(j)
	})
	if err != nil {
		return nil, err
	}
	res := &ClusterResult{Curves: make([]ClusterCurve, len(benches))}
	for i, b := range benches {
		pts := points[i*len(clusterHosts) : (i+1)*len(clusterHosts)]
		base := pts[0].Throughput
		for k := range pts {
			if base > 0 {
				pts[k].Speedup = pts[k].Throughput / base
			}
		}
		res.Curves[i] = ClusterCurve{Bench: b.Name, CapOne: jobs[i*len(clusterHosts)].cap1, Points: pts}
	}
	return res, nil
}

// Render emits one scaling table per benchmark: near-linear speedup
// while replicas bind, bending where the core link saturates.
func (r *ClusterResult) Render() string {
	t := newTable("Serving: fleet scaling — throughput vs host count (Bump-in-the-Wire, test scale)",
		"", "hosts", "completed", "throughput", "speedup", "p99")
	for _, c := range r.Curves {
		t.rowf("%s (1-host capacity bound %.4g req/s)", c.Bench, c.CapOne)
		for _, p := range c.Points {
			t.row("",
				fmt.Sprintf("%d", p.Hosts),
				fmt.Sprintf("%d", p.Completed),
				fmt.Sprintf("%.4g/s", p.Throughput),
				fmt.Sprintf("%.2fx", p.Speedup),
				p.P99.String())
		}
		last := c.Points[len(c.Points)-1]
		t.rowf("  %d hosts: %.2fx over 1 host (core link provisioned for ~%.1f hosts)",
			last.Hosts, last.Speedup, clusterCoreHosts)
	}
	return t.String()
}
