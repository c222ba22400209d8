package dmx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// FusePair names one adjacent hop pair (app, hop) and (app, hop+1)
// whose restructuring kernels compile into a single fused DRX program
// (Config.FuseHops). The leader hop holds its DRX slot across the
// intermediate accelerator stage; the follower resumes in place, saving
// one driver round-trip and the second program launch.
type FusePair = dmxsys.FusePair

// Spec is a complete, serializable experiment: workload selection, host
// configuration, serving knobs, fault plan, traffic, and cluster shape
// in one JSON document. It is the exchange format of the autotuner
// (TuneResult.Winner) and the -spec flag of both CLIs, and it is
// round-trippable: UnmarshalSpec(MarshalSpec(s)) == s.
//
// Zero values mean "the default the CLIs use": empty Scale is paper
// scale, empty Placement is bump-in-the-wire, Gen 0 is PCIe Gen3,
// Copies 0 is one instance per app, Hosts 0 is a single host, empty
// Router is score routing. Durations are strings in Go syntax ("200us",
// "30ms") so documents stay hand-editable.
type Spec struct {
	// Apps selects benchmarks by name (the dmxsim -app names:
	// sound-detection, video-surveillance, brain-stimulation,
	// personal-info-redaction, database-hash-join, pir-ner, genai-rag).
	// Empty means the full Table I suite.
	Apps []string `json:"apps,omitempty"`
	// Scale is "paper" (default) or "test".
	Scale string `json:"scale,omitempty"`
	// Copies is the number of instances of each selected app (default 1).
	Copies int `json:"copies,omitempty"`

	// Placement is the DRX placement token (allcpu, multiaxl,
	// integrated, standalone, pcie, bump). Empty = bump.
	Placement string `json:"placement,omitempty"`
	// Gen is the PCIe generation: 3 (default when 0), 4, or 5.
	Gen int `json:"gen,omitempty"`
	// Lanes overrides the DRX RE lane count (0 keeps the default 128).
	Lanes int `json:"lanes,omitempty"`
	// Discipline is the service discipline token (fifo, priority, wfq,
	// edf, srs). Empty = fifo.
	Discipline string `json:"discipline,omitempty"`
	// BatchWindow enables continuous batching ("200us"; empty = off).
	BatchWindow string `json:"batch_window,omitempty"`
	// BatchMax caps the batch size (0 = uncapped).
	BatchMax int `json:"batch_max,omitempty"`
	// Admit bounds each app's outstanding requests (0 = unlimited).
	Admit int `json:"admit,omitempty"`
	// FuseHops fuses adjacent restructuring hops (mutually exclusive
	// with BatchWindow; needs a shared-DRX placement).
	FuseHops []FusePair `json:"fuse_hops,omitempty"`

	// Faults is a fault-injection spec in the dmxsim -faults syntax
	// ("drx=5ms/200us,transient=0.01"); empty injects nothing.
	Faults string `json:"faults,omitempty"`
	// FaultSeed overrides the fault plan's PRNG seed when nonzero.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Retry caps attempts per stage (0 = the default policy of 3
	// whenever Faults, Retry, or Deadline is set).
	Retry int `json:"retry,omitempty"`
	// Deadline arms the per-stage watchdog ("500us"; empty = none).
	Deadline string `json:"deadline,omitempty"`

	// Arrival is the traffic process token (closed, open, poisson).
	// Required by Resolve: a Spec always describes a load run.
	Arrival string `json:"arrival"`
	// Rate is the offered request rate per app in req/s.
	Rate float64 `json:"rate,omitempty"`
	// Requests is the number of requests per app.
	Requests int `json:"requests,omitempty"`
	// Seed drives the Poisson arrival PRNG.
	Seed uint64 `json:"seed,omitempty"`
	// SLO is the per-request latency budget ("30ms"; empty = none).
	SLO string `json:"slo,omitempty"`

	// Hosts is the fleet size (0 or 1 = a single host).
	Hosts int `json:"hosts,omitempty"`
	// Router is the cluster routing policy token (score, rr, least).
	Router string `json:"router,omitempty"`
	// HostAdmit caps outstanding requests per host (0 = unlimited).
	HostAdmit int `json:"host_admit,omitempty"`
	// NetCore is the shared core network bandwidth in bytes/s.
	NetCore float64 `json:"net_core,omitempty"`
	// NetNIC is the per-host NIC bandwidth in bytes/s.
	NetNIC float64 `json:"net_nic,omitempty"`
	// NetLat is the one-way propagation latency ("2us"; empty = none).
	NetLat string `json:"net_lat,omitempty"`
}

// MarshalSpec renders the spec as deterministic, indented JSON with a
// trailing newline — stable bytes for goldens and version control.
func MarshalSpec(s Spec) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dmx: marshaling spec: %w", err)
	}
	return append(b, '\n'), nil
}

// UnmarshalSpec parses a JSON experiment document. Unknown fields are
// errors — a typo'd knob silently reverting to its default would run a
// different experiment than the one written down.
func UnmarshalSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("dmx: parsing spec: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil || len(extra) > 0 {
		return Spec{}, fmt.Errorf("dmx: parsing spec: trailing data after the JSON document")
	}
	return s, nil
}

// specPlacements mirrors the dmxsim -placement tokens.
var specPlacements = map[string]Placement{
	"allcpu":     AllCPU,
	"multiaxl":   MultiAxl,
	"integrated": Integrated,
	"standalone": Standalone,
	"pcie":       PCIeIntegrated,
	"bump":       BumpInTheWire,
}

// PlacementToken maps a placement back to its CLI/spec token.
func PlacementToken(p Placement) string {
	for tok, pl := range specPlacements {
		if pl == p {
			return tok
		}
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// ParseDuration parses a duration string in the spec's syntax ("200us",
// "30ms") into virtual time.
func ParseDuration(s string) (Duration, error) { return faults.ParseDuration(s) }

// FormatDuration renders a virtual duration in the spec's string syntax
// ("200µs" parses back to the same picosecond count).
func FormatDuration(d Duration) string {
	return time.Duration(d / sim.Nanosecond * sim.Duration(time.Nanosecond)).String()
}

// Resolve validates the spec and expands it into the three values
// SimulateCluster consumes: the fleet configuration, the traffic spec,
// and the pipeline list. The expansion is pure — resolving the same
// spec twice yields configurations that simulate identically — which is
// what makes a TuneResult.Winner replayable.
func (s Spec) Resolve() (FleetConfig, TrafficSpec, []*Pipeline, error) {
	fail := func(err error) (FleetConfig, TrafficSpec, []*Pipeline, error) {
		return FleetConfig{}, TrafficSpec{}, nil, err
	}

	// Workload scale and copies. The suite itself is built last, once
	// every scalar field has checked out: a paper-scale build costs about
	// a second, too long to wait for a one-line error.
	scale := workload.PaperScale
	switch s.Scale {
	case "", "paper":
	case "test":
		scale = workload.TestScale
	default:
		return fail(fmt.Errorf("dmx: spec scale %q (want \"paper\" or \"test\")", s.Scale))
	}
	copies := s.Copies
	if copies == 0 {
		copies = 1
	}
	if copies < 0 {
		return fail(fmt.Errorf("dmx: spec copies %d is negative", copies))
	}

	// Host configuration.
	ptok := s.Placement
	if ptok == "" {
		ptok = "bump"
	}
	p, ok := specPlacements[strings.ToLower(ptok)]
	if !ok {
		return fail(fmt.Errorf("dmx: spec placement %q (want one of allcpu, multiaxl, integrated, standalone, pcie, bump)", s.Placement))
	}
	cfg := DefaultConfig(p)
	switch s.Gen {
	case 0, 3:
	case 4:
		cfg.Gen = Gen4
	case 5:
		cfg.Gen = Gen5
	default:
		return fail(fmt.Errorf("dmx: spec gen %d (want 3, 4, or 5)", s.Gen))
	}
	if s.Lanes != 0 {
		cfg.DRX = cfg.DRX.WithLanes(s.Lanes)
	}
	if s.Discipline != "" {
		sched, err := dmxsys.ParseSched(s.Discipline)
		if err != nil {
			return fail(err)
		}
		cfg.Sched = sched
	}
	if s.BatchWindow != "" {
		w, err := faults.ParseDuration(s.BatchWindow)
		if err != nil {
			return fail(fmt.Errorf("dmx: spec batch_window: %w", err))
		}
		cfg.BatchWindow = w
	}
	cfg.BatchMax = s.BatchMax
	cfg.AdmitLimit = s.Admit
	if len(s.FuseHops) > 0 {
		cfg.FuseHops = append([]FusePair(nil), s.FuseHops...)
	}

	// Fault plan and recovery.
	if s.Retry < 0 {
		return fail(fmt.Errorf("dmx: spec retry %d is negative", s.Retry))
	}
	if s.Faults != "" {
		plan, err := ParseFaultPlan(s.Faults)
		if err != nil {
			return fail(err)
		}
		if s.FaultSeed != 0 {
			plan.Seed = s.FaultSeed
		}
		cfg.Faults = plan
	}
	if s.Faults != "" || s.Retry > 0 || s.Deadline != "" {
		r := DefaultRetry()
		if s.Retry > 0 {
			r.MaxAttempts = s.Retry
		}
		if s.Deadline != "" {
			d, err := faults.ParseDuration(s.Deadline)
			if err != nil {
				return fail(fmt.Errorf("dmx: spec deadline: %w", err))
			}
			r.StageDeadline = d
		}
		cfg.Retry = r
	}

	// Traffic.
	if s.Arrival == "" {
		return fail(fmt.Errorf("dmx: spec needs an arrival process (closed, open, or poisson)"))
	}
	arr, err := traffic.ParseArrival(s.Arrival)
	if err != nil {
		return fail(err)
	}
	ts := TrafficSpec{Arrival: arr, Rate: s.Rate, Requests: s.Requests, Seed: s.Seed}
	if s.SLO != "" {
		d, err := faults.ParseDuration(s.SLO)
		if err != nil {
			return fail(fmt.Errorf("dmx: spec slo: %w", err))
		}
		ts.Deadline = d
	}

	// Cluster shape. Cluster-only knobs on a one-host spec are rejected
	// for the same reason dmxsim rejects the flags: a single host has no
	// inter-host network, so accepting them would report physics the
	// document doesn't contain.
	hosts := s.Hosts
	if hosts == 0 {
		hosts = 1
	}
	if hosts == 1 {
		var bad []string
		if s.NetCore != 0 {
			bad = append(bad, "net_core")
		}
		if s.NetNIC != 0 {
			bad = append(bad, "net_nic")
		}
		if s.NetLat != "" {
			bad = append(bad, "net_lat")
		}
		if s.HostAdmit != 0 {
			bad = append(bad, "host_admit")
		}
		if len(bad) > 0 {
			return fail(fmt.Errorf("dmx: spec field(s) %s need hosts > 1 (got hosts %d)",
				strings.Join(bad, ", "), s.Hosts))
		}
	}
	fc := FleetConfig{Hosts: hosts, Base: cfg}
	if s.Router != "" {
		pol, err := ParseRouterPolicy(s.Router)
		if err != nil {
			return fail(err)
		}
		fc.Router.Policy = pol
	}
	fc.Router.HostAdmit = s.HostAdmit
	fc.Net = NetConfig{NICBytesPerSec: s.NetNIC, CoreBytesPerSec: s.NetCore}
	if s.NetLat != "" {
		d, err := faults.ParseDuration(s.NetLat)
		if err != nil {
			return fail(fmt.Errorf("dmx: spec net_lat: %w", err))
		}
		fc.Net.Latency = d
	}

	// Workload selection.
	benches, err := specBenchmarks(s.Apps, scale)
	if err != nil {
		return fail(err)
	}
	pipes := make([]*Pipeline, 0, copies*len(benches))
	for i := 0; i < copies; i++ {
		for _, b := range benches {
			pipes = append(pipes, b.Pipeline)
		}
	}
	if fc.Base.Sched == SchedPriority {
		fc.Base.AppPriority = make([]int, len(pipes))
		for i := range fc.Base.AppPriority {
			fc.Base.AppPriority[i] = i
		}
	}
	return fc, ts, pipes, nil
}

// Simulate resolves the spec and runs it through SimulateCluster — the
// one-call replay path for a tuner winner or a saved experiment.
func (s Spec) Simulate() (LoadReport, error) {
	fc, ts, pipes, err := s.Resolve()
	if err != nil {
		return LoadReport{}, err
	}
	return SimulateCluster(fc, ts, pipes...)
}

// specBenchmarks resolves app names at a scale, building only the apps
// named (each once, however often it is named); no names is the Table I
// Suite.
func specBenchmarks(names []string, sc workload.Scale) ([]*workload.Benchmark, error) {
	if len(names) == 0 {
		return workload.Suite(sc)
	}
	for _, name := range names {
		if _, ok := workload.Lookup(name); !ok {
			return nil, fmt.Errorf("dmx: spec app %q (known: %s)", name, strings.Join(workload.Names(), ", "))
		}
	}
	byName := make(map[string]*workload.Benchmark, len(names))
	out := make([]*workload.Benchmark, 0, len(names))
	for _, name := range names {
		b, ok := byName[name]
		if !ok {
			build, _ := workload.Lookup(name)
			var err error
			if b, err = build(sc); err != nil {
				return nil, err
			}
			byName[name] = b
		}
		out = append(out, b)
	}
	return out, nil
}
