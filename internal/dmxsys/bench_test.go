package dmxsys_test

import (
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// servingBench drives one full RunLoad over the first test-scale
// benchmark with the given config mutation. Building the system is
// inside the timed loop on purpose: the serving benchmarks price the
// whole run end to end (construction + drive + report). The
// per-request allocation count is pinned separately, with construction
// cancelled out, by TestServingAllocsPerRequest.
func servingBench(b *testing.B, mut func(*dmxsys.Config)) {
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		b.Fatal(err)
	}
	spec := traffic.Spec{
		Arrival:  traffic.Poisson,
		Rate:     30000,
		Requests: 64,
		Seed:     5,
	}
	run := func() {
		cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
		if mut != nil {
			mut(&cfg)
		}
		s, err := dmxsys.New(cfg, []*dmxsys.Pipeline{benches[0].Pipeline})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunLoad(spec); err != nil {
			b.Fatal(err)
		}
	}
	// One cold pass outside the timer warms the process-wide DRX
	// timing cache and the event/shell pools, so allocs/op measures the
	// steady state.
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkRunLoadUnbatched is the per-request serving baseline: every
// arrival walks the state machine alone.
func BenchmarkRunLoadUnbatched(b *testing.B) {
	servingBench(b, nil)
}

// BenchmarkRunLoadBatched runs the same load through the continuous
// batching accumulator: arrivals coalesce inside a 200 µs window and
// walk the pipeline on pooled carriers. Allocs/op must stay in the
// same regime as the unbatched path — the accumulator and carriers
// recycle, they do not grow with batch count.
func BenchmarkRunLoadBatched(b *testing.B) {
	servingBench(b, func(c *dmxsys.Config) {
		c.BatchWindow = 200 * sim.Microsecond
		c.BatchMax = 8
	})
}

// BenchmarkRunLoadBatchedEDF adds the keyed discipline on top of
// batching: contended stations pop earliest-deadline-first from the
// keyed heap instead of shifting a FIFO.
func BenchmarkRunLoadBatchedEDF(b *testing.B) {
	servingBench(b, func(c *dmxsys.Config) {
		c.BatchWindow = 200 * sim.Microsecond
		c.BatchMax = 8
		c.Sched = dmxsys.SchedEDF
	})
}

// BenchmarkBuild prices one cell of the paper's concurrency sweeps
// (Figs. 3 and 11-15): 15 copies of one test-scale pipeline built into
// a fresh System and run one-shot, under each placement. Construction
// costs as much as the simulation here, so allocs/op tracks the build.
func BenchmarkBuild(b *testing.B) {
	bench, err := workload.VideoSurveillance(workload.TestScale)
	if err != nil {
		b.Fatal(err)
	}
	pipes := make([]*dmxsys.Pipeline, 15)
	for i := range pipes {
		pipes[i] = bench.Pipeline
	}
	for _, p := range []dmxsys.Placement{dmxsys.AllCPU, dmxsys.MultiAxl, dmxsys.Integrated,
		dmxsys.Standalone, dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire} {
		b.Run(p.String(), func(b *testing.B) {
			cfg := dmxsys.DefaultConfig(p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := dmxsys.New(cfg, pipes)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
