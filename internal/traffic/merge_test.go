package traffic

import (
	"testing"

	"dmx/internal/obs"
	"dmx/internal/sim"
)

func sampleLoad(n int, base obs.Duration) AppLoad {
	al := AppLoad{App: "app", Requests: n, Completed: n, Offered: 100}
	for i := 0; i < n; i++ {
		d := base * obs.Duration(i+1)
		al.Latency.Add(d)
		al.CleanLat.Add(d)
	}
	return al
}

func TestMergeAppsIdentity(t *testing.T) {
	part := sampleLoad(8, obs.Duration(1e9))
	part.Missed, part.Degraded, part.Rejected = 2, 1, 3
	merged := MergeApps(part, AppLoad{})
	// The quantile fields are Finalize's job; everything MergeApps owns
	// must round-trip through a merge with an empty partial.
	if merged != part {
		t.Errorf("merging with an empty partial is not the identity:\n%+v\nvs\n%+v", merged, part)
	}
}

func TestMergeAppsSums(t *testing.T) {
	a := sampleLoad(4, obs.Duration(1e9)) // 1..4 ms
	a.Retries, a.Batches, a.BatchedRequests = 2, 1, 3
	b := sampleLoad(6, obs.Duration(5e9)) // 5..30 ms
	b.Timeouts, b.Abandoned = 1, 1
	m := MergeApps(a, b)
	if m.Requests != 10 || m.Completed != 10 || m.Retries != 2 || m.Timeouts != 1 ||
		m.Abandoned != 1 || m.Batches != 1 || m.BatchedRequests != 3 {
		t.Errorf("count roll-up wrong: %+v", m)
	}
	if m.Offered != 200 {
		t.Errorf("Offered = %g, want 200", m.Offered)
	}
	if m.Latency.Count != 10 || m.Latency.Sum != a.Latency.Sum+b.Latency.Sum {
		t.Errorf("histogram roll-up wrong: count %d sum %v", m.Latency.Count, m.Latency.Sum)
	}
	if m.Latency.Min != a.Latency.Min || m.Latency.Max != b.Latency.Max {
		t.Errorf("merged extrema [%v, %v], want [%v, %v]",
			m.Latency.Min, m.Latency.Max, a.Latency.Min, b.Latency.Max)
	}
}

func TestMergeAppsQuantileClamp(t *testing.T) {
	// Finalize over a merged histogram must keep the clamp invariant the
	// report format relies on: p50 ≤ p95 ≤ p99 ≤ max.
	rep := LoadReport{PerApp: []AppLoad{MergeApps(
		sampleLoad(20, obs.Duration(2e8)), sampleLoad(5, obs.Duration(9e9)))}}
	rep.Finalize()
	al := rep.PerApp[0]
	if al.P50 > al.P95 || al.P95 > al.P99 || al.P99 > al.Max {
		t.Errorf("quantiles disordered after merge: p50 %v p95 %v p99 %v max %v",
			al.P50, al.P95, al.P99, al.Max)
	}
	if al.Max != sim.Duration(sampleLoad(5, obs.Duration(9e9)).Latency.Max) {
		t.Errorf("max %v not taken from the slower partial", al.Max)
	}
}

func TestRoundRobinAndSplitRate(t *testing.T) {
	for j := 0; j < 9; j++ {
		if RoundRobin(j, 3) != j%3 {
			t.Fatalf("RoundRobin(%d, 3) = %d", j, RoundRobin(j, 3))
		}
	}
	shares := SplitRate(600, []int{2, 1, 1, 0})
	want := []float64{300, 150, 150, 0}
	for i := range want {
		if shares[i] != want[i] {
			t.Errorf("SplitRate share %d = %g, want %g", i, shares[i], want[i])
		}
	}
	if got := SplitRate(600, []int{0, 0}); got[0] != 0 || got[1] != 0 {
		t.Errorf("SplitRate with no requests = %v, want zeros", got)
	}
	// The single-receiver split is exact, not approximately rate — the
	// one-host fleet report depends on it.
	if got := SplitRate(123.456, []int{37, 0})[0]; got != 123.456 {
		t.Errorf("single-receiver share = %g, want 123.456 exactly", got)
	}
	// rate·c/c rounds off rate for these: 0.1·3/3 is 0.10000000000000002.
	for _, rate := range []float64{0.1, 0.3, 1.1, 7.7, 123.456, 1e-3} {
		for n := 1; n < 200; n++ {
			if got := SplitRate(rate, []int{0, n, 0}); got[1] != rate || got[0] != 0 || got[2] != 0 {
				t.Fatalf("SplitRate(%g, [0 %d 0]) = %v, want [0 %g 0]", rate, n, got, rate)
			}
		}
	}
}
