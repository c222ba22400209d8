package dmxsys

import (
	"strings"
	"testing"

	"dmx/internal/obs"
	"dmx/internal/traffic"
)

// closedLoop runs a closed-loop train of n requests per app: Sec.
// VII-A's continuous arrival, every request released at once and paced
// by the pipeline.
func closedLoop(t *testing.T, p Placement, apps, n int) traffic.LoadReport {
	t.Helper()
	s, err := New(DefaultConfig(p), pipelines(apps))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunLoad(traffic.Spec{Arrival: traffic.ClosedLoop, Requests: n})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestClosedLoopPipelines(t *testing.T) {
	rep := closedLoop(t, BumpInTheWire, 1, 8)
	if len(rep.PerApp) != 1 {
		t.Fatalf("%d app rows", len(rep.PerApp))
	}
	if rep.PerApp[0].Achieved <= 0 {
		t.Fatal("no throughput measured")
	}
	// Pipelining: 8 requests must finish in well under 8× a single
	// request's latency.
	single, err := New(DefaultConfig(BumpInTheWire), pipelines(1))
	if err != nil {
		t.Fatal(err)
	}
	singleRep, err := single.Run()
	if err != nil {
		t.Fatal(err)
	}
	lat := singleRep.Apps[0].Total
	if float64(rep.Makespan) > 7.5*float64(lat) {
		t.Errorf("closed-loop makespan %v shows no pipelining vs single latency %v", rep.Makespan, lat)
	}
}

func TestStreamedThroughputValidatesStageAnalysis(t *testing.T) {
	// The analytic throughput (1 / slowest stage) and the measured
	// closed-loop rate must agree within a factor of two in both
	// directions — they are different estimators of the same pipeline.
	for _, p := range []Placement{MultiAxl, BumpInTheWire} {
		lat, err := New(DefaultConfig(p), pipelines(1))
		if err != nil {
			t.Fatal(err)
		}
		latRep, err := lat.Run()
		if err != nil {
			t.Fatal(err)
		}
		analytic := latRep.Apps[0].Throughput()

		measured := closedLoop(t, p, 1, 12).PerApp[0].Achieved
		if measured <= 0 {
			t.Fatalf("%v: no measured throughput", p)
		}
		ratio := measured / analytic
		if ratio < 0.5 || ratio > 2.5 {
			t.Errorf("%v: measured %.1f req/s vs analytic %.1f req/s (ratio %.2f)",
				p, measured, analytic, ratio)
		}
	}
}

func TestStreamedDMXThroughputBeatsBaseline(t *testing.T) {
	run := func(p Placement) float64 {
		var sum float64
		for _, a := range closedLoop(t, p, 2, 8).PerApp {
			sum += a.Achieved
		}
		return sum
	}
	base := run(MultiAxl)
	dmxT := run(BumpInTheWire)
	if dmxT <= base {
		t.Errorf("closed-loop DMX throughput %.1f not above baseline %.1f", dmxT, base)
	}
}

// A rate needs two completions: a one-request train is refused rather
// than reported with a made-up throughput.
func TestClosedLoopValidation(t *testing.T) {
	s, err := New(DefaultConfig(BumpInTheWire), pipelines(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunLoad(traffic.Spec{Arrival: traffic.ClosedLoop, Requests: 1}); err == nil {
		t.Error("a one-request closed-loop train did not return an error")
	} else if !strings.Contains(err.Error(), "at least 2 requests") {
		t.Errorf("unexpected one-request error: %v", err)
	}
}

func TestTraceFollowsFig10Sequence(t *testing.T) {
	cfg := DefaultConfig(BumpInTheWire)
	var events []string
	cfg.Obs = obs.New()
	cfg.Obs.OnEvent = func(ev *obs.Event) {
		if line, ok := obs.RenderText(ev); ok {
			events = append(events, line)
		}
	}
	s, err := New(cfg, pipelines(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The Fig. 10 order: input DMA, kernel 1, P2P into the DRX RX queue,
	// restructuring, TX, P2P to the peer, kernel 2.
	wantOrder := []string{
		"request input DMA",
		"kernel aes-gcm enqueued",
		"kernel aes-gcm finished",
		"P2P DMA a0.0→RX queue",
		"DRX restructuring record-frame",
		"restructured into TX queue",
		"P2P DMA a0.0→a0.1",
		"kernel regex enqueued",
		"kernel regex finished",
	}
	pos := 0
	for _, ev := range events {
		if pos < len(wantOrder) && strings.Contains(ev, wantOrder[pos]) {
			pos++
		}
	}
	if pos != len(wantOrder) {
		t.Fatalf("trace missing step %d (%q); got:\n%s", pos, wantOrder[pos], strings.Join(events, "\n"))
	}
}

func TestTraceDoesNotPerturbTiming(t *testing.T) {
	quiet, err := New(DefaultConfig(BumpInTheWire), pipelines(2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := quiet.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(BumpInTheWire)
	cfg.Obs = obs.New()
	cfg.Obs.OnEvent = func(ev *obs.Event) { obs.RenderText(ev) }
	traced, err := New(cfg, pipelines(2))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traced.Run()
	if err != nil {
		t.Fatal(err)
	}
	if q.Makespan != tr.Makespan || q.MeanTotal() != tr.MeanTotal() {
		t.Errorf("tracing changed timing: %v/%v vs %v/%v", q.Makespan, q.MeanTotal(), tr.Makespan, tr.MeanTotal())
	}
}
