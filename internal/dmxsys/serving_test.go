package dmxsys

import (
	"fmt"
	"testing"
	"unsafe"

	"dmx/internal/sweep"
	"dmx/internal/traffic"
)

func TestRunLoadRejectsInvalidSpec(t *testing.T) {
	s, err := New(DefaultConfig(BumpInTheWire), pipelines(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunLoad(traffic.Spec{Arrival: traffic.OpenLoop, Requests: 1, Rate: 100}); err == nil {
		t.Fatal("RunLoad accepted a 1-request spec")
	}
}

// Request records are pooled per System, so a record's size is paid
// once per request in flight rather than per request. At 72 bytes it
// fell into Go's 80-byte size class; at 64 it is one class lower.
// TestServingAllocsPerRequest counts allocations, not bytes, so only
// this pin catches a field that pushes the record back over.
func TestRequestFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(request{}); n > 64 {
		t.Errorf("request is %d bytes, want ≤ 64 (one 64-byte size class)", n)
	}
}

// loadReportFor builds a fresh system and runs one Poisson load, so the
// determinism test can replay the identical work under different sweep
// pool widths.
func loadReportFor(seed uint64) (string, error) {
	s, err := New(DefaultConfig(BumpInTheWire), pipelines(2))
	if err != nil {
		return "", err
	}
	rep, err := s.RunLoad(traffic.Spec{
		Arrival:  traffic.Poisson,
		Rate:     2000,
		Requests: 12,
		Seed:     seed,
	})
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// TestRunLoadDeterministicAcrossWorkers is the serving determinism
// contract: the same seed and spec must produce a byte-identical
// LoadReport whether the sweep harness runs sequentially (-j 1) or on
// eight workers.
func TestRunLoadDeterministicAcrossWorkers(t *testing.T) {
	seeds := []uint64{1, 2, 3, 7}
	runAll := func(workers int) []string {
		prev := sweep.SetWorkers(workers)
		defer sweep.SetWorkers(prev)
		out, err := sweep.Map(seeds, func(_ int, seed uint64) (string, error) {
			return loadReportFor(seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := runAll(1)
	par := runAll(8)
	for i := range seeds {
		if seq[i] != par[i] {
			t.Errorf("seed %d: report differs between -j 1 and -j 8:\n-j1:\n%s\n-j8:\n%s",
				seeds[i], seq[i], par[i])
		}
	}
	// Different seeds must actually change the Poisson timeline, or the
	// comparison above proves nothing.
	if seq[0] == seq[1] {
		t.Error("different seeds produced identical reports")
	}
}

// TestRunLoadSaturationMatchesCapacity drives one app far past its
// capacity and checks that the achieved completion rate plateaus at the
// AppReport.Throughput bound (the inverse of the measured bottleneck
// occupancy). Bump-in-the-wire keeps restructuring off the shared host,
// so the bound is tight there.
func TestRunLoadSaturationMatchesCapacity(t *testing.T) {
	probe, err := New(DefaultConfig(BumpInTheWire), pipelines(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := probe.Run()
	if err != nil {
		t.Fatal(err)
	}
	ar := rep.Apps[0]
	if ar.Bottleneck <= 0 {
		t.Fatalf("run recorded no bottleneck occupancy (resource %q)", ar.BottleneckResource)
	}
	capacity := ar.Throughput()

	sys, err := New(DefaultConfig(BumpInTheWire), pipelines(1))
	if err != nil {
		t.Fatal(err)
	}
	lr, err := sys.RunLoad(traffic.Spec{
		Arrival:  traffic.OpenLoop,
		Rate:     3 * capacity,
		Requests: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	al := lr.PerApp[0]
	if al.Completed != 64 {
		t.Fatalf("%d/64 requests completed", al.Completed)
	}
	if rel := (al.Achieved - capacity) / capacity; rel > 0.01 || rel < -0.01 {
		t.Errorf("achieved %.4g req/s vs capacity bound %.4g req/s (%.2f%% off, bottleneck %s)",
			al.Achieved, capacity, 100*rel, ar.BottleneckResource)
	}
	// Overload must show up as queueing: the tail has to sit well above
	// the mean of an unloaded run.
	if al.P99 <= al.Mean {
		t.Errorf("p99 %v not above mean %v under 3x overload", al.P99, al.Mean)
	}
}

// TestPrioritySchedulingCutsTailLatency puts four apps behind one shared
// integrated DRX at 2x its capacity and checks that priority scheduling
// moves the favored app's tail latency below its FIFO tail. The DRX is
// deliberately slowed (1 GB/s DRAM) so the shared station — where the
// discipline acts — is the bottleneck rather than the fabric.
func TestPrioritySchedulingCutsTailLatency(t *testing.T) {
	const napps = 4
	slowCfg := func(sched SchedPolicy) Config {
		cfg := DefaultConfig(Integrated)
		cfg.DRX.DRAMBytesPerSec = 1e9
		cfg.Sched = sched
		cfg.AppPriority = []int{0, 1, 1, 1}
		return cfg
	}

	probe, err := New(slowCfg(SchedFIFO), pipelines(napps))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := probe.Run()
	if err != nil {
		t.Fatal(err)
	}
	ar := rep.Apps[0]
	if ar.BottleneckResource != "drx.integrated" {
		t.Fatalf("contention test wants the shared DRX as bottleneck, got %q", ar.BottleneckResource)
	}
	// Half of one app's solo capacity, offered by four apps at once: the
	// shared DRX sees 2x its service rate and builds a backlog.
	rate := 0.5 * ar.Throughput()

	p99 := func(sched SchedPolicy) traffic.AppLoad {
		sys, err := New(slowCfg(sched), pipelines(napps))
		if err != nil {
			t.Fatal(err)
		}
		lr, err := sys.RunLoad(traffic.Spec{
			Arrival:  traffic.Poisson,
			Rate:     rate,
			Requests: 24,
			Seed:     11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return lr.PerApp[0]
	}
	fifo := p99(SchedFIFO)
	prio := p99(SchedPriority)
	if prio.P99 >= fifo.P99 {
		t.Errorf("priority p99 %v not below FIFO p99 %v at %s2x shared-DRX overload",
			prio.P99, fifo.P99, fmt.Sprintf("%.0f req/s/app = ", rate))
	}
	if prio.Mean >= fifo.Mean {
		t.Errorf("priority mean %v not below FIFO mean %v", prio.Mean, fifo.Mean)
	}
}
