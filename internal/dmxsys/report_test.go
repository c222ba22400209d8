package dmxsys_test

import (
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/workload"
)

// TestEveryRunRecordsBottleneck pins what AppReport.Throughput relies
// on: every app of every Run carries a positive Bottleneck and names
// its resource. Table I plus PIR+NER (three kernels) co-run under all
// six placements.
func TestEveryRunRecordsBottleneck(t *testing.T) {
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	ner, err := workload.PIRWithNER(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	pipes := []*dmxsys.Pipeline{ner.Pipeline}
	for _, b := range benches {
		pipes = append(pipes, b.Pipeline)
	}
	for _, p := range []dmxsys.Placement{
		dmxsys.AllCPU, dmxsys.MultiAxl, dmxsys.Integrated,
		dmxsys.Standalone, dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire,
	} {
		s, err := dmxsys.New(dmxsys.DefaultConfig(p), pipes)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Apps) != len(pipes) {
			t.Fatalf("%v: %d app reports for %d pipelines", p, len(rep.Apps), len(pipes))
		}
		for _, a := range rep.Apps {
			if a.Bottleneck <= 0 || a.BottleneckResource == "" {
				t.Errorf("%v %s: bottleneck %v on %q", p, a.App, a.Bottleneck, a.BottleneckResource)
			}
		}
	}
}
