package cluster_test

import (
	"os"
	"testing"

	"dmx"
	"dmx/internal/cluster"
)

// BenchmarkFleetSpecEvents runs the benchmark suite's fleet workload
// (perfbench/specs/fleet.json at paper scale, seed 1) once per
// iteration and reports the engine events it fires per run and per
// request, a count the suite itself does not read for fleets.
func BenchmarkFleetSpecEvents(b *testing.B) {
	data, err := os.ReadFile("../../perfbench/specs/fleet.json")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := dmx.UnmarshalSpec(data)
	if err != nil {
		b.Fatal(err)
	}
	spec.Seed, spec.FaultSeed = 1, 1
	fc, ts, pipes, err := spec.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := cluster.New(fc, pipes)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Run(ts); err != nil {
			b.Fatal(err)
		}
		events = f.Fired()
	}
	b.ReportMetric(float64(events), "events/run")
	b.ReportMetric(float64(events)/float64(ts.Requests*len(pipes)), "events/request")
}
