package dmxsys

import (
	"bytes"
	"testing"

	"dmx/internal/obs"
	"dmx/internal/sweep"
	"dmx/internal/traffic"
)

// captureTrace runs one traced simulation and returns the recorder and
// report.
func captureTrace(t *testing.T, p Placement, napps int) (*obs.Recorder, RunReport) {
	t.Helper()
	cfg := DefaultConfig(p)
	cfg.Obs = obs.New()
	s, err := New(cfg, pipelines(napps))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Obs, rep
}

// Every placement's structured trace must render to valid Chrome
// trace-event JSON with properly nested slices — the CI trace job's
// check, run across the whole placement matrix.
func TestStructuredTraceValidatesForEveryPlacement(t *testing.T) {
	for _, p := range []Placement{AllCPU, MultiAxl, Integrated, Standalone, PCIeIntegrated, BumpInTheWire} {
		rec, _ := captureTrace(t, p, 2)
		if rec.Len() == 0 {
			t.Fatalf("%v: no events recorded", p)
		}
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf, rec.Events()); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		sum, err := obs.ValidateTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("%v: trace does not validate: %v", p, err)
		}
		if sum.Slices == 0 {
			t.Errorf("%v: no slices in trace", p)
		}
	}
}

// The bump-in-the-wire trace must contain the full Fig. 10 vocabulary:
// protocol instants with step ids, per-device service spans, DMA flow
// arrows, and link occupancy counters.
func TestBumpTraceCarriesFig10Vocabulary(t *testing.T) {
	rec, _ := captureTrace(t, BumpInTheWire, 1)
	var haveSteps = map[uint8]bool{}
	var service, flows, counters, phases int
	for _, ev := range rec.Events() {
		if ev.Step != 0 {
			haveSteps[ev.Step] = true
		}
		switch {
		case ev.Kind == obs.KindSpan && ev.Type == obs.TypeService:
			service++
		case ev.Kind == obs.KindFlowBegin:
			flows++
		case ev.Kind == obs.KindCounter:
			counters++
		case ev.Kind == obs.KindSpan && ev.Type == obs.TypePhase:
			phases++
		}
	}
	for _, step := range []uint8{obs.StepKernelDone, obs.StepRXDMA,
		obs.StepRestructure, obs.StepTXReady, obs.StepP2PDMA, obs.StepNextKernel} {
		if !haveSteps[step] {
			t.Errorf("no event carries Fig. 10 step %d", step)
		}
	}
	if service == 0 || flows == 0 || counters == 0 || phases == 0 {
		t.Errorf("vocabulary incomplete: %d service spans, %d flows, %d counters, %d phase spans",
			service, flows, counters, phases)
	}
}

// The recorder sink must not perturb timing — the structured-sink
// extension of TestTraceDoesNotPerturbTiming: traced and untraced runs
// produce identical reports, component by component.
func TestRecorderSinkDoesNotPerturbTiming(t *testing.T) {
	for _, p := range []Placement{MultiAxl, BumpInTheWire} {
		quiet, err := New(DefaultConfig(p), pipelines(2))
		if err != nil {
			t.Fatal(err)
		}
		q, err := quiet.Run()
		if err != nil {
			t.Fatal(err)
		}
		_, tr := captureTrace(t, p, 2)
		if q.Makespan != tr.Makespan {
			t.Errorf("%v: recorder changed makespan: %v vs %v", p, q.Makespan, tr.Makespan)
		}
		for i := range q.Apps {
			a, b := q.Apps[i], tr.Apps[i]
			if a.KernelTime != b.KernelTime || a.RestructureTime != b.RestructureTime ||
				a.MovementTime != b.MovementTime || a.Total != b.Total {
				t.Errorf("%v app %d: breakdown diverged: %+v vs %+v", p, i, a, b)
			}
		}
	}
}

// Trace bytes must be identical whether simulations run sequentially or
// on the parallel sweep pool — each engine owns its recorder, so worker
// count can never interleave streams.
func TestTraceBytesIdenticalSequentialVsParallel(t *testing.T) {
	render := func(workers int) [][]byte {
		old := sweep.SetWorkers(workers)
		defer sweep.SetWorkers(old)
		out := make([][]byte, 4)
		err := sweep.Each(len(out), func(i int) error {
			cfg := DefaultConfig(BumpInTheWire)
			cfg.Obs = obs.New()
			s, err := New(cfg, pipelines(1+i%2))
			if err != nil {
				return err
			}
			if _, err := s.Run(); err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := obs.WriteTrace(&buf, cfg.Obs.Events()); err != nil {
				return err
			}
			out[i] = buf.Bytes()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := render(1)
	par := render(4)
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Fatalf("trace %d differs between sequential and parallel runs", i)
		}
	}
}

func TestReportCarriesMetricsWhenTraced(t *testing.T) {
	_, rep := captureTrace(t, BumpInTheWire, 2)
	m := rep.Metrics
	if m == nil {
		t.Fatal("traced run has nil Metrics")
	}
	if m.Makespan != obs.Duration(rep.Makespan) {
		t.Errorf("metrics makespan %d != report %d", m.Makespan, rep.Makespan)
	}
	if len(m.Devices) == 0 || m.BytesMoved == 0 {
		t.Errorf("metrics empty: %+v", m)
	}
	var busy bool
	for _, d := range m.Devices {
		if d.Utilization > 0 {
			busy = true
		}
		if d.Utilization > 1.0000001 {
			t.Errorf("device %s utilization %f > 1", d.Name, d.Utilization)
		}
	}
	if !busy {
		t.Error("no device shows utilization")
	}
	for _, ph := range m.Phases {
		if ph.Hist.Count == 0 {
			t.Errorf("phase %v has empty histogram", ph.Phase)
		}
	}

	quiet, err := New(DefaultConfig(BumpInTheWire), pipelines(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := quiet.Run(); err != nil {
		t.Fatal(err)
	} else if rep.Metrics != nil {
		t.Error("untraced run carries Metrics")
	}
}

// A closed-loop train gives every request its own trace track, so spans
// still nest and the trace still validates under pipelined requests.
func TestStreamedTraceValidates(t *testing.T) {
	cfg := DefaultConfig(BumpInTheWire)
	cfg.Obs = obs.New()
	s, err := New(cfg, pipelines(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunLoad(traffic.Spec{Arrival: traffic.ClosedLoop, Requests: 6}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, cfg.Obs.Events()); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("closed-loop trace does not validate: %v", err)
	}
}
