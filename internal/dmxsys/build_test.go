package dmxsys

import (
	"reflect"
	"testing"
)

var allPlacements = []Placement{AllCPU, MultiAxl, Integrated, Standalone, PCIeIntegrated, BumpInTheWire}

// TestOccupancyTablesPlanSized checks that the plan sizes every app's
// occupancy table exactly: after a run, each table holds as many
// distinct resources as occupancySlots reserved, so assigning slots at
// build never regrew one and no reserved slot went unused.
func TestOccupancyTablesPlanSized(t *testing.T) {
	single := testPipeline("single")
	single.Stages, single.Hops = single.Stages[:1], nil
	pipes := []*Pipeline{testPipeline("two"), threeStagePipeline(), single, testPipeline("four")}
	for _, p := range allPlacements {
		s, err := New(DefaultConfig(p), pipes)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for _, a := range s.apps {
			if want := occupancySlots(p, a.pipe); len(a.occNames) != want {
				t.Errorf("%v %s: %d resources in a table sized %d: %v",
					p, a.pipe.Name, len(a.occNames), want, a.occNames)
			}
		}
	}
}

// TestPlanSharesTablesPerPipeline checks the per-pipeline dedupe: apps
// that run one *Pipeline share its DRX timings and scheduling tables,
// except that an app with a fused pair gets remaining-service tables of
// its own, the same ones a plan fusing that pipeline alone builds.
func TestPlanSharesTablesPerPipeline(t *testing.T) {
	pipe := threeStagePipeline()
	cfg := DefaultConfig(Standalone)
	cfg.FuseHops = []FusePair{{App: 1, Hop: 0}}
	p, err := NewPlan(cfg, []*Pipeline{pipe, pipe, pipe})
	if err != nil {
		t.Fatal(err)
	}
	a0, a1, a2 := &p.apps[0], &p.apps[1], &p.apps[2]
	if &a0.hopDRX[0] != &a1.hopDRX[0] || &a0.hopDRX[0] != &a2.hopDRX[0] {
		t.Error("apps on one pipeline do not share its DRX timings")
	}
	if &a0.remAtHop[0] != &a2.remAtHop[0] || &a0.remAtKernel[0] != &a2.remAtKernel[0] {
		t.Error("unfused apps on one pipeline do not share its scheduling tables")
	}
	if a0.fusion != nil || a2.fusion != nil || a1.fusion == nil {
		t.Fatalf("fusion tables: app0 %v app1 %v app2 %v", a0.fusion, a1.fusion, a2.fusion)
	}
	if &a1.remAtHop[0] == &a0.remAtHop[0] {
		t.Fatal("the fused app shares the unfused scheduling tables")
	}

	alone := cfg
	alone.FuseHops = []FusePair{{App: 0, Hop: 0}}
	q, err := NewPlan(alone, []*Pipeline{pipe})
	if err != nil {
		t.Fatal(err)
	}
	if want := q.apps[0]; !reflect.DeepEqual(a1.remAtHop, want.remAtHop) ||
		!reflect.DeepEqual(a1.remAtKernel, want.remAtKernel) || !reflect.DeepEqual(a1.fusion, want.fusion) {
		t.Errorf("fused app tables %v/%v/%v, want %v/%v/%v", a1.remAtKernel, a1.remAtHop, a1.fusion,
			want.remAtKernel, want.remAtHop, want.fusion)
	}
	unfused, err := NewPlan(DefaultConfig(Standalone), []*Pipeline{pipe})
	if err != nil {
		t.Fatal(err)
	}
	if want := unfused.apps[0]; !reflect.DeepEqual(a0.remAtHop, want.remAtHop) ||
		!reflect.DeepEqual(a0.remAtKernel, want.remAtKernel) {
		t.Errorf("unfused app tables %v/%v, want %v/%v", a0.remAtKernel, a0.remAtHop, want.remAtKernel, want.remAtHop)
	}
}
