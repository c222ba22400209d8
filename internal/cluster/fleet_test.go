package cluster_test

// Fleet acceptance gates. The load-bearing one is single-host byte
// identity: a one-host fleet with the zero network and router configs
// must reproduce System.RunLoad's LoadReport and trace bytes exactly, across
// placements and across the serving features (batching, admission
// control, deadlines, fault injection with retry). The rest pin the
// roll-up arithmetic, the router's placement/fault/admission behavior,
// and the multi-host trace.

import (
	"bytes"
	"strings"
	"testing"

	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// chainedBench returns one multi-stage benchmark from the test-scale
// suite (fleet routing is only interesting with hops to restructure).
func chainedBench(t *testing.T) *workload.Benchmark {
	t.Helper()
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		if len(b.Pipeline.Hops) > 0 {
			return b
		}
	}
	t.Fatal("no chained benchmark in suite")
	return nil
}

// capOf is app 0's capacity bound under cfg (req/s), used to scale
// offered load so tests stay fast and deterministic.
func capOf(t *testing.T, cfg dmxsys.Config, pipe *dmxsys.Pipeline) float64 {
	t.Helper()
	p, err := dmxsys.NewPlan(cfg, []*dmxsys.Pipeline{pipe})
	if err != nil {
		t.Fatal(err)
	}
	caps, err := p.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	return caps[0].PerSecond
}

func fleetRun(t *testing.T, cfg cluster.FleetConfig, spec traffic.Spec, pipes ...*dmxsys.Pipeline) (*cluster.Fleet, traffic.LoadReport) {
	t.Helper()
	f, err := cluster.New(cfg, pipes)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return f, rep
}

func TestFleetSingleHostByteIdentity(t *testing.T) {
	b := chainedBench(t)
	cases := []struct {
		name string
		cfg  func() dmxsys.Config
		spec traffic.Spec
	}{
		{"bump-poisson", func() dmxsys.Config {
			return dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
		}, traffic.Spec{Arrival: traffic.Poisson, Rate: 2000, Requests: 48, Seed: 7}},
		{"multiaxl-open-deadline", func() dmxsys.Config {
			return dmxsys.DefaultConfig(dmxsys.MultiAxl)
		}, traffic.Spec{Arrival: traffic.OpenLoop, Rate: 3000, Requests: 32, Deadline: 2 * sim.Millisecond}},
		{"allcpu-closed", func() dmxsys.Config {
			return dmxsys.DefaultConfig(dmxsys.AllCPU)
		}, traffic.Spec{Arrival: traffic.ClosedLoop, Requests: 8}},
		{"bump-batched-admitted-faulty", func() dmxsys.Config {
			cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
			cfg.BatchWindow = 200 * sim.Microsecond
			cfg.BatchMax = 4
			cfg.AdmitLimit = 12
			cfg.Sched = dmxsys.SchedEDF
			cfg.Faults = &faults.Plan{Seed: 11, DRXMTBF: 2 * sim.Millisecond,
				DRXRepair: 300 * sim.Microsecond, TransientProb: 0.05}
			cfg.Retry = faults.DefaultRetry()
			return cfg
		}, traffic.Spec{Arrival: traffic.Poisson, Rate: 4000, Requests: 64, Seed: 3,
			Deadline: 5 * sim.Millisecond}},
	}
	// Both runs record a trace: the Perfetto bytes must match as well
	// as the report (a one-host router has no choice to record).
	traced := func(tc func() dmxsys.Config) (dmxsys.Config, *obs.Recorder) {
		cfg := tc()
		cfg.Obs = obs.New()
		return cfg, cfg.Obs
	}
	perfetto := func(rec *obs.Recorder) []byte {
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf, rec.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			soloCfg, soloRec := traced(tc.cfg)
			solo, err := dmxsys.New(soloCfg, []*dmxsys.Pipeline{b.Pipeline})
			if err != nil {
				t.Fatal(err)
			}
			want, err := solo.RunLoad(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			fleetCfg, fleetRec := traced(tc.cfg)
			_, got := fleetRun(t, cluster.FleetConfig{Hosts: 1, Base: fleetCfg}, tc.spec, b.Pipeline)
			if got.String() != want.String() {
				t.Errorf("one-host fleet diverged from RunLoad:\n--- fleet\n%s\n--- solo\n%s", got, want)
			}
			if g, w := fleetRec.Len(), soloRec.Len(); g != w {
				t.Errorf("one-host fleet recorded %d trace events, RunLoad %d", g, w)
			}
			if !bytes.Equal(perfetto(fleetRec), perfetto(soloRec)) {
				t.Error("one-host fleet trace bytes differ from RunLoad's")
			}
		})
	}
}

func TestFleetRepeatDeterminism(t *testing.T) {
	b := chainedBench(t)
	cfg := cluster.FleetConfig{Hosts: 3, Base: dmxsys.DefaultConfig(dmxsys.BumpInTheWire)}
	spec := traffic.Spec{Arrival: traffic.Poisson, Rate: 6000, Requests: 48, Seed: 21}
	_, first := fleetRun(t, cfg, spec, b.Pipeline)
	_, second := fleetRun(t, cfg, spec, b.Pipeline)
	if first.String() != second.String() {
		t.Errorf("same fleet config produced different reports:\n%s\nvs:\n%s", first, second)
	}
}

func TestFleetRollup(t *testing.T) {
	b := chainedBench(t)
	base := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	hosts := 3
	spec := traffic.Spec{Arrival: traffic.Poisson, Rate: 6000, Requests: 60, Seed: 5}
	f, rep := fleetRun(t, cluster.FleetConfig{
		Hosts:  hosts,
		Base:   base,
		Router: cluster.RouterConfig{Policy: cluster.PolicyRR},
	}, spec, b.Pipeline)

	al := rep.PerApp[0]
	if al.Requests != spec.Requests {
		t.Errorf("merged Requests = %d, want %d", al.Requests, spec.Requests)
	}
	if got := al.Completed + al.Abandoned + al.Rejected; got != al.Requests {
		t.Errorf("outcomes sum to %d of %d requests", got, al.Requests)
	}
	if al.Latency.Count != int64(al.Completed) {
		t.Errorf("latency histogram holds %d samples for %d completions", al.Latency.Count, al.Completed)
	}
	if al.CleanLat.Count+al.DegradedLat.Count != al.Latency.Count {
		t.Error("outcome-split histograms do not partition the latency histogram")
	}
	if al.Max < al.P99 || al.P99 < al.P50 {
		t.Errorf("merged quantiles disordered: p50 %v p99 %v max %v", al.P50, al.P99, al.Max)
	}
	if diff := al.Offered - spec.Rate; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("merged Offered = %g, want ~%g", al.Offered, spec.Rate)
	}
	// Round-robin with no admission cap assigns arrival j to host j%3
	// exactly.
	routed := f.Routed()
	total := 0
	for h := 0; h < hosts; h++ {
		want := spec.Requests / hosts
		if h < spec.Requests%hosts {
			want++
		}
		if routed[h][0] != want {
			t.Errorf("host %d received %d requests, want %d (strict round-robin)", h, routed[h][0], want)
		}
		total += routed[h][0]
	}
	if total != spec.Requests {
		t.Errorf("routed %d of %d requests", total, spec.Requests)
	}
}

func TestRouterHostAdmit(t *testing.T) {
	b := chainedBench(t)
	spec := traffic.Spec{Arrival: traffic.ClosedLoop, Requests: 16}
	_, rep := fleetRun(t, cluster.FleetConfig{
		Hosts:  2,
		Base:   dmxsys.DefaultConfig(dmxsys.BumpInTheWire),
		Router: cluster.RouterConfig{HostAdmit: 2},
	}, spec, b.Pipeline)
	al := rep.PerApp[0]
	// A closed-loop burst lands before any completion: 2 hosts × 2
	// outstanding admit 4 requests, the router rejects the other 12.
	if al.Rejected != 12 || al.Completed != 4 {
		t.Errorf("HostAdmit=2 on 2 hosts: %d completed, %d rejected (want 4, 12)", al.Completed, al.Rejected)
	}
	if al.Requests != spec.Requests {
		t.Errorf("Requests = %d, want %d (router rejections must stay in the total)", al.Requests, spec.Requests)
	}
}

func TestRouterDrain(t *testing.T) {
	b := chainedBench(t)
	faulty := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	faulty.Faults = &faults.Plan{Seed: 42, DRXMTBF: 500 * sim.Microsecond,
		DRXRepair: 5 * sim.Millisecond, TransientProb: 0.2}
	faulty.Retry = faults.DefaultRetry()
	clean := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	rate := 0.5 * capOf(t, clean, b.Pipeline)
	spec := traffic.Spec{Arrival: traffic.Poisson, Rate: rate, Requests: 80, Seed: 9}
	f, rep := fleetRun(t, cluster.FleetConfig{
		Hosts:   2,
		Base:    clean,
		PerHost: []dmxsys.Config{faulty, clean},
		Router: cluster.RouterConfig{Policy: cluster.PolicyRR,
			DrainIncidents: 1},
	}, spec, b.Pipeline)
	if got := f.FaultCounts(); got == (faults.Counts{}) {
		t.Fatal("fault plan injected nothing; drain test needs incidents (pick another seed)")
	}
	routed := f.Routed()
	if routed[0][0] >= routed[1][0] {
		t.Errorf("drained faulty host received %d requests vs clean host's %d", routed[0][0], routed[1][0])
	}
	al := rep.PerApp[0]
	if al.Completed+al.Abandoned+al.Rejected != al.Requests {
		t.Errorf("outcomes sum to %d of %d under draining", al.Completed+al.Abandoned+al.Rejected, al.Requests)
	}
}

func TestRouterPlacementScore(t *testing.T) {
	b := chainedBench(t)
	// All-CPU is the slow host: bump and Multi-Axl tie on this bench
	// (both are bound by the same accelerator), so only a host without
	// accelerators separates the bounds the router reads.
	fast := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	slow := dmxsys.DefaultConfig(dmxsys.AllCPU)
	capFast := capOf(t, fast, b.Pipeline)
	capSlow := capOf(t, slow, b.Pipeline)
	if capFast <= capSlow {
		t.Fatalf("bench does not separate placements (bump %g vs all-cpu %g req/s)", capFast, capSlow)
	}
	// Light load keeps outstanding near zero, so the score reduces to
	// the capacity bound and every arrival should prefer the host whose
	// DRX placement favors the pipeline.
	spec := traffic.Spec{Arrival: traffic.Poisson, Rate: 0.2 * capSlow, Requests: 40, Seed: 13}
	f, _ := fleetRun(t, cluster.FleetConfig{
		Hosts:   2,
		Base:    fast,
		PerHost: []dmxsys.Config{slow, fast},
	}, spec, b.Pipeline)
	routed := f.Routed()
	t.Logf("bump %.0f req/s got %d arrivals, all-cpu %.0f req/s got %d", capFast, routed[1][0], capSlow, routed[0][0])
	if routed[1][0] <= 3*routed[0][0] {
		t.Errorf("score routing sent %d requests to the favored host, %d to the slow one",
			routed[1][0], routed[0][0])
	}
}

func TestFleetNetworkBottleneck(t *testing.T) {
	// A starved core link must stretch the makespan: the same load over
	// a fat network finishes strictly sooner.
	b := chainedBench(t)
	base := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	rate := 2 * capOf(t, base, b.Pipeline)
	spec := traffic.Spec{Arrival: traffic.OpenLoop, Rate: rate, Requests: 32}
	bytesPerReq := float64(b.Pipeline.InputBytes + b.Pipeline.OutputBytes)
	fat := cluster.FleetConfig{Hosts: 4, Base: base,
		Net: cluster.NetConfig{CoreBytesPerSec: 100 * rate * bytesPerReq, Latency: 2 * sim.Microsecond}}
	thin := fat
	thin.Net.CoreBytesPerSec = 0.25 * rate * bytesPerReq
	_, fatRep := fleetRun(t, fat, spec, b.Pipeline)
	_, thinRep := fleetRun(t, thin, spec, b.Pipeline)
	if thinRep.Makespan <= fatRep.Makespan {
		t.Errorf("starved core (%v makespan) did not slow the fleet vs fat core (%v)",
			thinRep.Makespan, fatRep.Makespan)
	}
}

func TestFleetTrace(t *testing.T) {
	b := chainedBench(t)
	base := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	base.Obs = obs.New()
	spec := traffic.Spec{Arrival: traffic.Poisson, Rate: 4000, Requests: 24, Seed: 17}
	fleetRun(t, cluster.FleetConfig{Hosts: 3, Base: base}, spec, b.Pipeline)

	events := base.Obs.Events()
	routes, hostTracks := 0, 0
	for i := range events {
		ev := &events[i]
		if ev.Type == obs.TypeRoute {
			routes++
			if ev.Track != "cluster.router" || !strings.HasPrefix(ev.Peer, "h") {
				t.Fatalf("malformed route event: track %q peer %q", ev.Track, ev.Peer)
			}
		}
		if strings.HasPrefix(ev.Track, "h1/") {
			hostTracks++
		}
	}
	if routes != spec.Requests {
		t.Errorf("%d route instants for %d requests", routes, spec.Requests)
	}
	if hostTracks == 0 {
		t.Error("no events on h1/-prefixed tracks: host namespacing missing from the trace")
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("multi-host trace failed validation: %v", err)
	}
}

func TestFleetConfigErrors(t *testing.T) {
	b := chainedBench(t)
	base := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	cases := []struct {
		name string
		cfg  cluster.FleetConfig
	}{
		{"zero-hosts", cluster.FleetConfig{Hosts: 0, Base: base}},
		{"perhost-mismatch", cluster.FleetConfig{Hosts: 3, Base: base,
			PerHost: []dmxsys.Config{base}}},
		{"negative-net", cluster.FleetConfig{Hosts: 2, Base: base,
			Net: cluster.NetConfig{NICBytesPerSec: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := cluster.New(tc.cfg, []*dmxsys.Pipeline{b.Pipeline}); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}
