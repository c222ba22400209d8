package experiments

import (
	"testing"

	"dmx/internal/sweep"
)

// TestClusterCurveShape pins the scaling figure's shape for every
// benchmark: near-linear gains while replicas are the bottleneck, a
// visible bend at 8 hosts where the core link (provisioned for ~5.5
// hosts' payload) saturates, and monotone non-decreasing throughput
// throughout. Thresholds are loose enough to survive timing-model
// tuning but tight enough to catch a router or fabric regression that
// collapses the fleet onto one host.
func TestClusterCurveShape(t *testing.T) {
	res, err := Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) == 0 {
		t.Fatal("no curves")
	}
	for _, c := range res.Curves {
		if len(c.Points) != len(clusterHosts) {
			t.Fatalf("%s: %d points, want %d", c.Bench, len(c.Points), len(clusterHosts))
		}
		thr := make(map[int]float64, len(c.Points))
		for _, p := range c.Points {
			if p.Completed != clusterRequests {
				t.Errorf("%s @%d hosts: %d completed, want %d (overdriven open loop must not drop requests)",
					c.Bench, p.Hosts, p.Completed, clusterRequests)
			}
			if p.Throughput <= 0 {
				t.Fatalf("%s @%d hosts: non-positive throughput", c.Bench, p.Hosts)
			}
			thr[p.Hosts] = p.Throughput
		}
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Throughput < c.Points[i-1].Throughput {
				t.Errorf("%s: throughput not monotone: %d hosts %.4g/s < %d hosts %.4g/s",
					c.Bench, c.Points[i].Hosts, c.Points[i].Throughput,
					c.Points[i-1].Hosts, c.Points[i-1].Throughput)
			}
		}
		if s := thr[2] / thr[1]; s < 1.6 {
			t.Errorf("%s: 2-host speedup %.2fx, want >= 1.6x (near-linear)", c.Bench, s)
		}
		if s := thr[4] / thr[1]; s < 2.5 {
			t.Errorf("%s: 4-host speedup %.2fx, want >= 2.5x (near-linear)", c.Bench, s)
		}
		if s := thr[8] / thr[1]; s >= 6.5 {
			t.Errorf("%s: 8-host speedup %.2fx, want < 6.5x (core link provisioned for ~%.1f hosts must bend the curve)",
				c.Bench, s, clusterCoreHosts)
		}
	}
}

// TestClusterDeterministicAcrossWorkerCounts is the fleet-executor
// gate: because each point is one shared-engine simulation, the
// rendered figure must be byte-identical whether the sweep pool runs
// its (benchmark × hosts) cells on 1, 2, or 8 workers.
func TestClusterDeterministicAcrossWorkerCounts(t *testing.T) {
	prev := sweep.SetWorkers(1)
	defer sweep.SetWorkers(prev)

	seqRes, err := Cluster()
	if err != nil {
		t.Fatalf("sequential Cluster: %v", err)
	}
	seq := seqRes.Render()

	for _, workers := range []int{2, 8} {
		sweep.SetWorkers(workers)
		parRes, err := Cluster()
		if err != nil {
			t.Fatalf("Cluster with %d workers: %v", workers, err)
		}
		if par := parRes.Render(); par != seq {
			t.Errorf("%d-worker rendering differs from sequential:\n--- sequential ---\n%s\n--- %d workers ---\n%s",
				workers, seq, workers, par)
		}
	}
}
