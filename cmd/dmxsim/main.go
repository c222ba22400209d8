// Command dmxsim runs a single system configuration and prints the
// latency/throughput/energy report: one benchmark (or the full suite),
// a concurrency level, a DRX placement, and fabric/DRX knobs.
//
// Examples:
//
//	dmxsim -app sound-detection -apps 4 -placement bump
//	dmxsim -app all -apps 15 -placement multiaxl -gen 4
//	dmxsim -app database-hash-join -placement bump -lanes 64 -v
//	dmxsim -app sound-detection -trace-out trace.json -stats
//	dmxsim -app sound-detection -apps 4 -arrival poisson -rate 2000 -requests 64 -seed 7
//
// -trace-out writes the structured trace as Chrome trace-event JSON;
// open it at ui.perfetto.dev. -stats prints per-device utilization and
// per-stage latency histograms aggregated from the same event stream.
//
// -arrival switches to load-generation mode: each application receives
// -requests requests under the chosen arrival process (closed-loop
// burst, open-loop fixed rate, or seeded Poisson at -rate req/s), and
// the report shows per-app offered vs achieved throughput and latency
// quantiles. -discipline selects how contended stations order waiting
// jobs (fifo, priority, wfq, edf, srs).
//
// The serving layer's SLO machinery hangs off four more flags:
// -batch-window enables continuous batching (arrivals of one app within
// the window coalesce into one pipeline walk; the report gains a
// batches line), -batch-max caps the batch size, -slo sets the
// per-request latency budget (the miss accounting in the report, and
// the deadlines EDF schedules by), and -admit bounds each app's
// outstanding requests with immediate rejection beyond the limit:
//
//	dmxsim -app sound-detection -apps 4 -arrival poisson -rate 4000 -requests 64 \
//	    -batch-window 200us -discipline edf -slo 30ms -admit 32
//
// -faults turns on seeded deterministic fault injection (DRX outages,
// transient restructure errors, PCIe link degradation/loss, accelerator
// stalls):
//
//	dmxsim -app sound-detection -arrival poisson -rate 2000 -requests 64 \
//	    -faults drx=5ms/200us,transient=0.01 -fault-seed 42
//
// Injection implies the default recovery policy (bounded retries with
// exponential backoff, graceful degradation of DRX-down hops to
// CPU-mediated restructuring); -retry caps the attempts and -deadline
// arms a per-stage watchdog. The same -faults spec and -fault-seed
// always reproduce the same report.
//
// -hosts N (with a load-mode -arrival) replicates the whole
// configuration N times into a fleet on one shared engine and routes
// the arrival process through the cluster router. -router picks the
// policy (score = placement-aware headroom, rr, least), -host-admit
// caps each host's outstanding requests, -drain N/window drains hosts
// whose fault incidents spike, and -net-core/-net-nic/-net-lat model
// the inter-host network:
//
//	dmxsim -app sound-detection -hosts 4 -arrival poisson -rate 8000 -requests 256 \
//	    -router score -host-admit 64 -net-nic 12.5e9 -net-lat 2us
//
// The report is the same LoadReport, rolled up across replicas, plus a
// "router:" line showing where requests landed. A fleet of one host is
// byte-identical to the single-host load run.
//
// The cluster-only flags (-net-*, -host-admit, -drain) are rejected
// with -hosts 1 rather than silently ignored.
//
// -spec file.json loads a serialized experiment document (dmx.Spec —
// the format the autotuner emits as TuneResult.Winner) as the base
// configuration. Every field the document sets becomes the new default;
// flags given explicitly on the command line still override it:
//
//	dmxsim -spec tuned.json              # replay the document as-is
//	dmxsim -spec tuned.json -requests 64 # same experiment, longer run
//
// Unknown fields in the document are rejected, and spec-only fields
// with no flag equivalent (scale, fuse_hops) apply directly. A document
// selecting multiple apps is rejected — dmxsim runs one benchmark name
// or 'all'; replay multi-app specs with dmxbench -exp tune.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dmx"
	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/pcie"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

var placements = map[string]dmxsys.Placement{
	"allcpu":     dmxsys.AllCPU,
	"multiaxl":   dmxsys.MultiAxl,
	"integrated": dmxsys.Integrated,
	"standalone": dmxsys.Standalone,
	"pcie":       dmxsys.PCIeIntegrated,
	"bump":       dmxsys.BumpInTheWire,
}

// options collects every flag so that run is testable with a fixed
// configuration and an in-memory writer.
type options struct {
	app       string
	napps     int
	placement string
	gen       int
	lanes     int
	verbose   bool
	trace     bool
	stats     bool
	traceOut  string

	// Spec-only knobs: carried from a -spec document, no flag of their
	// own. scale selects workload geometry ("" = paper); fuse lists the
	// fused hop pairs.
	scale string
	fuse  []dmxsys.FusePair

	// Load-generation mode (empty arrival = classic one-shot run).
	arrival    string
	rate       float64
	requests   int
	seed       uint64
	discipline string

	// Serving SLO machinery (zero values = all disabled).
	batchWindow string
	batchMax    int
	admit       int
	slo         string

	// Fault injection and recovery (empty faults = none injected).
	faults    string
	faultSeed uint64
	retry     int
	deadline  string

	// Cluster mode (hosts > 1 replicates the config into a fleet).
	hosts     int
	router    string
	hostAdmit int
	drain     string
	netCore   float64
	netNIC    float64
	netLat    string
}

func main() {
	var o options
	flag.StringVar(&o.app, "app", "all", "benchmark name or 'all' (video-surveillance, sound-detection, brain-stimulation, personal-info-redaction, database-hash-join, pir-ner, genai-rag)")
	flag.IntVar(&o.napps, "apps", 1, "concurrent application instances")
	flag.StringVar(&o.placement, "placement", "bump", "allcpu | multiaxl | integrated | standalone | pcie | bump")
	flag.IntVar(&o.gen, "gen", 3, "PCIe generation (3, 4, 5)")
	flag.IntVar(&o.lanes, "lanes", 128, "DRX RE lanes (power of two)")
	flag.BoolVar(&o.verbose, "v", false, "print per-app breakdowns")
	flag.BoolVar(&o.trace, "trace", false, "print the Fig. 10 event trace")
	flag.BoolVar(&o.stats, "stats", false, "print device utilization and per-stage latency histograms")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Perfetto-loadable trace (Chrome trace-event JSON) to this file")
	flag.StringVar(&o.arrival, "arrival", "", "load-generation arrival process: closed | open | poisson (empty = one request per app)")
	flag.Float64Var(&o.rate, "rate", 1000, "offered request rate per app in req/s (open and poisson arrivals)")
	flag.IntVar(&o.requests, "requests", 16, "requests per app in load-generation mode")
	flag.Uint64Var(&o.seed, "seed", 1, "PRNG seed for poisson arrivals")
	flag.StringVar(&o.discipline, "discipline", "fifo", "service discipline at contended stations: fifo | priority | wfq | edf | srs")
	flag.StringVar(&o.batchWindow, "batch-window", "", "continuous-batching window, e.g. '200us' (empty = batching off)")
	flag.IntVar(&o.batchMax, "batch-max", 0, "max requests per batch; reaching it flushes the window early (0 = uncapped)")
	flag.IntVar(&o.admit, "admit", 0, "per-app admission limit on outstanding requests in load mode (0 = unlimited)")
	flag.StringVar(&o.slo, "slo", "", "per-request latency budget, e.g. '30ms' (deadline-miss accounting; the deadline EDF schedules by)")
	flag.StringVar(&o.faults, "faults", "", "fault-injection spec, e.g. 'drx=5ms/200us,transient=0.01,link=20ms/1ms/0.25,stall=10ms/500us'")
	flag.Uint64Var(&o.faultSeed, "fault-seed", 0, "override the fault plan's PRNG seed (0 keeps the spec's seed)")
	flag.IntVar(&o.retry, "retry", 0, "max attempts per stage under faults (0 = default policy of 3 when -faults is set)")
	flag.StringVar(&o.deadline, "deadline", "", "per-stage watchdog deadline, e.g. '500us' (empty = no watchdog)")
	flag.IntVar(&o.hosts, "hosts", 1, "fleet size: replicate the whole configuration onto N hosts behind the cluster router (needs -arrival)")
	flag.StringVar(&o.router, "router", "score", "cluster routing policy: score (placement-aware headroom) | rr | least")
	flag.IntVar(&o.hostAdmit, "host-admit", 0, "cluster-level cap on outstanding requests per host (0 = unlimited)")
	flag.StringVar(&o.drain, "drain", "", "fault-aware draining as 'N/window', e.g. '3/2ms': drain a host with ≥N incidents inside the trailing window ('3' alone = unbounded window)")
	flag.Float64Var(&o.netCore, "net-core", 0, "shared core network bandwidth in bytes/s per direction (0 = unmodeled)")
	flag.Float64Var(&o.netNIC, "net-nic", 0, "per-host NIC bandwidth in bytes/s per direction (0 = unmodeled)")
	flag.StringVar(&o.netLat, "net-lat", "", "one-way network propagation latency, e.g. '2us' (empty = none)")
	specPath := flag.String("spec", "", "load a JSON experiment Spec (dmx.Spec) as the base configuration; explicitly set flags override its fields")
	flag.Parse()

	if *specPath != "" {
		doc, err := os.ReadFile(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmxsim: -spec: %v\n", err)
			os.Exit(1)
		}
		s, err := dmx.UnmarshalSpec(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmxsim: -spec: %v\n", err)
			os.Exit(1)
		}
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		o, err = applySpec(s, o, explicit)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmxsim: -spec: %v\n", err)
			os.Exit(1)
		}
	}

	// One buffered writer carries everything — the event trace, the
	// report, and the energy line — so output order is exactly emission
	// order regardless of how the pieces are produced.
	out := bufio.NewWriter(os.Stdout)
	err := run(o, out)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmxsim: %v\n", err)
		os.Exit(1)
	}
}

// applySpec merges a Spec document under the parsed flags: every spec
// field becomes the new base value unless the corresponding flag was
// given explicitly on the command line (explicit[name]), in which case
// the flag wins. Zero-valued spec fields leave the flag defaults alone,
// so a sparse document overrides only what it mentions.
func applySpec(s dmx.Spec, o options, explicit map[string]bool) (options, error) {
	if len(s.Apps) > 0 && !explicit["app"] {
		if len(s.Apps) > 1 {
			return o, fmt.Errorf("spec selects %d apps; dmxsim runs one benchmark (or 'all') — use dmxbench -exp tune for multi-app specs", len(s.Apps))
		}
		o.app = s.Apps[0]
	}
	if s.Scale != "" {
		switch s.Scale {
		case "paper", "test":
			o.scale = s.Scale
		default:
			return o, fmt.Errorf("spec scale %q (want \"paper\" or \"test\")", s.Scale)
		}
	}
	o.fuse = append([]dmxsys.FusePair(nil), s.FuseHops...)
	type merge struct {
		flag  string
		apply func()
		skip  bool
	}
	for _, m := range []merge{
		{"apps", func() { o.napps = s.Copies }, s.Copies == 0},
		{"placement", func() { o.placement = s.Placement }, s.Placement == ""},
		{"gen", func() { o.gen = s.Gen }, s.Gen == 0},
		{"lanes", func() { o.lanes = s.Lanes }, s.Lanes == 0},
		{"discipline", func() { o.discipline = s.Discipline }, s.Discipline == ""},
		{"batch-window", func() { o.batchWindow = s.BatchWindow }, s.BatchWindow == ""},
		{"batch-max", func() { o.batchMax = s.BatchMax }, s.BatchMax == 0},
		{"admit", func() { o.admit = s.Admit }, s.Admit == 0},
		{"faults", func() { o.faults = s.Faults }, s.Faults == ""},
		{"fault-seed", func() { o.faultSeed = s.FaultSeed }, s.FaultSeed == 0},
		{"retry", func() { o.retry = s.Retry }, s.Retry == 0},
		{"deadline", func() { o.deadline = s.Deadline }, s.Deadline == ""},
		{"arrival", func() { o.arrival = s.Arrival }, s.Arrival == ""},
		{"rate", func() { o.rate = s.Rate }, s.Rate == 0},
		{"requests", func() { o.requests = s.Requests }, s.Requests == 0},
		{"seed", func() { o.seed = s.Seed }, s.Seed == 0},
		{"slo", func() { o.slo = s.SLO }, s.SLO == ""},
		{"hosts", func() { o.hosts = s.Hosts }, s.Hosts == 0},
		{"router", func() { o.router = s.Router }, s.Router == ""},
		{"host-admit", func() { o.hostAdmit = s.HostAdmit }, s.HostAdmit == 0},
		{"net-core", func() { o.netCore = s.NetCore }, s.NetCore == 0},
		{"net-nic", func() { o.netNIC = s.NetNIC }, s.NetNIC == 0},
		{"net-lat", func() { o.netLat = s.NetLat }, s.NetLat == ""},
	} {
		if m.skip || explicit[m.flag] {
			continue
		}
		m.apply()
	}
	return o, nil
}

func run(o options, out io.Writer) error {
	p, ok := placements[strings.ToLower(o.placement)]
	if !ok {
		return fmt.Errorf("unknown placement %q (want one of allcpu, multiaxl, integrated, standalone, pcie, bump)", o.placement)
	}
	if err := checkClusterFlags(o); err != nil {
		return err
	}
	cfg := dmxsys.DefaultConfig(p)
	switch o.gen {
	case 3:
		cfg.Gen = pcie.Gen3
	case 4:
		cfg.Gen = pcie.Gen4
	case 5:
		cfg.Gen = pcie.Gen5
	default:
		return fmt.Errorf("unsupported PCIe generation %d", o.gen)
	}
	cfg.DRX = cfg.DRX.WithLanes(o.lanes)
	if o.discipline != "" {
		sched, err := dmxsys.ParseSched(o.discipline)
		if err != nil {
			return err
		}
		cfg.Sched = sched
	}
	if err := applyFaults(o, &cfg); err != nil {
		return err
	}
	if o.batchWindow != "" {
		w, err := faults.ParseDuration(o.batchWindow)
		if err != nil {
			return fmt.Errorf("-batch-window: %w", err)
		}
		cfg.BatchWindow = w
	}
	cfg.BatchMax = o.batchMax
	cfg.AdmitLimit = o.admit
	if len(o.fuse) > 0 {
		cfg.FuseHops = append([]dmxsys.FusePair(nil), o.fuse...)
	}
	if o.trace {
		cfg.Trace = func(at sim.Time, app, event string) {
			fmt.Fprintf(out, "  [%12v] %-24s %s\n", at, app, event)
		}
	}
	if o.traceOut != "" || o.stats {
		cfg.Obs = obs.New()
	}

	scale := workload.PaperScale
	if o.scale == "test" {
		scale = workload.TestScale
	}
	benches, err := selectBenchmarks(o.app, scale)
	if err != nil {
		return err
	}
	pipes := make([]*dmxsys.Pipeline, 0, o.napps*len(benches))
	for i := 0; i < o.napps; i++ {
		for _, b := range benches {
			pipes = append(pipes, b.Pipeline)
		}
	}
	if cfg.Sched == dmxsys.SchedPriority {
		// Default priority order: app index (earlier instances first).
		cfg.AppPriority = make([]int, len(pipes))
		for i := range cfg.AppPriority {
			cfg.AppPriority[i] = i
		}
	}
	if o.hosts > 1 {
		if o.arrival == "" {
			return fmt.Errorf("-hosts %d needs a load run: set -arrival (closed | open | poisson)", o.hosts)
		}
		if o.trace {
			return fmt.Errorf("-trace is single-host only; use -trace-out or -stats on a fleet")
		}
		fmt.Fprintf(out, "simulating %d app instance(s) of %s under %v on %d hosts (PCIe %v, %d RE lanes)...\n",
			len(pipes), o.app, p, o.hosts, cfg.Gen, o.lanes)
		return runCluster(o, cfg, pipes, out)
	}
	fmt.Fprintf(out, "simulating %d app instance(s) of %s under %v (PCIe %v, %d RE lanes)...\n",
		len(pipes), o.app, p, cfg.Gen, o.lanes)
	sys, err := dmxsys.New(cfg, pipes)
	if err != nil {
		return err
	}
	if o.arrival != "" {
		return runLoad(o, cfg, sys, out)
	}
	rep, err := sys.Run()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, rep)
	printFaultCounts(sys, cfg, out)
	if o.verbose {
		for _, a := range rep.Apps {
			thr := a.Throughput(2)
			fmt.Fprintf(out, "  %-26s total %-12v kernel %-12v restructure %-12v movement %-12v (%.1f req/s)\n",
				a.App, a.Total, a.KernelTime, a.RestructureTime, a.MovementTime, thr)
		}
	}
	fmt.Fprintf(out, "energy: %.2f J ", rep.EnergyJ)
	keys := make([]string, 0, len(rep.EnergyBreakdown))
	for k := range rep.EnergyBreakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%s=%.2f ", k, rep.EnergyBreakdown[k])
	}
	fmt.Fprintln(out)
	if o.stats {
		fmt.Fprintln(out, rep.Metrics)
	}
	return writeTraceFile(o, cfg, out)
}

// checkClusterFlags rejects cluster-only flags on a single-host run.
// Silently ignoring -net-* (or -host-admit, -drain) would
// print a report for physics the user didn't ask about — a one-host
// "fleet" has no inter-host network to model.
func checkClusterFlags(o options) error {
	if o.hosts > 1 {
		return nil
	}
	var bad []string
	if o.netCore != 0 {
		bad = append(bad, "-net-core")
	}
	if o.netNIC != 0 {
		bad = append(bad, "-net-nic")
	}
	if o.netLat != "" {
		bad = append(bad, "-net-lat")
	}
	if o.hostAdmit != 0 {
		bad = append(bad, "-host-admit")
	}
	if o.drain != "" {
		bad = append(bad, "-drain")
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%s: cluster-only flag(s) need -hosts > 1 (got -hosts %d)",
		strings.Join(bad, ", "), o.hosts)
}

// applyFaults wires the -faults/-fault-seed/-retry/-deadline flags into
// the config. Injection implies the default retry policy — faulted runs
// recover (retry, then degrade to CPU restructuring) rather than fail —
// and -retry / -deadline tune it.
func applyFaults(o options, cfg *dmxsys.Config) error {
	if o.faults != "" {
		plan, err := faults.ParseSpec(o.faults)
		if err != nil {
			return err
		}
		if o.faultSeed != 0 {
			plan.Seed = o.faultSeed
		}
		cfg.Faults = plan
	}
	if o.faults == "" && o.retry == 0 && o.deadline == "" {
		return nil
	}
	r := faults.DefaultRetry()
	if o.retry > 0 {
		r.MaxAttempts = o.retry
	}
	if o.deadline != "" {
		d, err := faults.ParseDuration(o.deadline)
		if err != nil {
			return err
		}
		r.StageDeadline = d
	}
	cfg.Retry = r
	return nil
}

// printFaultCounts summarizes the incidents the run actually observed.
func printFaultCounts(sys *dmxsys.System, cfg dmxsys.Config, out io.Writer) {
	if cfg.Faults == nil {
		return
	}
	c := sys.FaultCounts()
	fmt.Fprintf(out, "faults observed: %d DRX outages, %d link incidents, %d stalls, %d transients\n",
		c.DRXOutages, c.LinkIncidents, c.Stalls, c.Transients)
}

// loadSpec assembles the traffic spec the load and cluster modes share.
func loadSpec(o options) (traffic.Spec, error) {
	arr, err := traffic.ParseArrival(o.arrival)
	if err != nil {
		return traffic.Spec{}, err
	}
	spec := traffic.Spec{Arrival: arr, Rate: o.rate, Requests: o.requests, Seed: o.seed}
	if o.slo != "" {
		d, err := faults.ParseDuration(o.slo)
		if err != nil {
			return traffic.Spec{}, fmt.Errorf("-slo: %w", err)
		}
		spec.Deadline = d
	}
	return spec, nil
}

// runCluster replicates cfg onto -hosts hosts and drives the fleet
// through the cluster router.
func runCluster(o options, cfg dmxsys.Config, pipes []*dmxsys.Pipeline, out io.Writer) error {
	spec, err := loadSpec(o)
	if err != nil {
		return err
	}
	pol, err := cluster.ParsePolicy(o.router)
	if err != nil {
		return err
	}
	rc := cluster.RouterConfig{Policy: pol, HostAdmit: o.hostAdmit}
	if o.drain != "" {
		inc, window, ok := strings.Cut(o.drain, "/")
		if _, err := fmt.Sscanf(inc, "%d", &rc.DrainIncidents); err != nil || rc.DrainIncidents < 1 {
			return fmt.Errorf("-drain: want 'N/window' or 'N' (got %q)", o.drain)
		}
		if ok {
			d, err := faults.ParseDuration(window)
			if err != nil {
				return fmt.Errorf("-drain window: %w", err)
			}
			rc.DrainWindow = d
		}
	}
	nc := cluster.NetConfig{NICBytesPerSec: o.netNIC, CoreBytesPerSec: o.netCore}
	if o.netLat != "" {
		d, err := faults.ParseDuration(o.netLat)
		if err != nil {
			return fmt.Errorf("-net-lat: %w", err)
		}
		nc.Latency = d
	}
	f, err := cluster.New(cluster.FleetConfig{Hosts: o.hosts, Base: cfg, Net: nc, Router: rc}, pipes)
	if err != nil {
		return err
	}
	rep, err := f.Run(spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, rep)
	fmt.Fprintf(out, "router: policy=%v", pol)
	for h, perApp := range f.Routed() {
		n := 0
		for _, c := range perApp {
			n += c
		}
		fmt.Fprintf(out, " h%d=%d", h, n)
	}
	fmt.Fprintln(out)
	if cfg.Faults != nil {
		c := f.FaultCounts()
		fmt.Fprintf(out, "faults observed: %d DRX outages, %d link incidents, %d stalls, %d transients\n",
			c.DRXOutages, c.LinkIncidents, c.Stalls, c.Transients)
	}
	if o.stats && cfg.Obs != nil {
		fmt.Fprintln(out, obs.Aggregate(cfg.Obs.Events(), obs.Duration(rep.Makespan)))
	}
	return writeTraceFile(o, cfg, out)
}

// runLoad drives the assembled system in load-generation mode.
func runLoad(o options, cfg dmxsys.Config, sys *dmxsys.System, out io.Writer) error {
	spec, err := loadSpec(o)
	if err != nil {
		return err
	}
	rep, err := sys.RunLoad(spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, rep)
	printFaultCounts(sys, cfg, out)
	if o.stats && cfg.Obs != nil {
		fmt.Fprintln(out, obs.Aggregate(cfg.Obs.Events(), obs.Duration(rep.Makespan)))
	}
	return writeTraceFile(o, cfg, out)
}

// writeTraceFile dumps the recorded event stream as Perfetto JSON when
// -trace-out was given.
func writeTraceFile(o options, cfg dmxsys.Config, out io.Writer) error {
	if o.traceOut == "" {
		return nil
	}
	rec := cfg.Obs
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	werr := obs.WriteTrace(f, rec.Events())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing trace: %w", werr)
	}
	fmt.Fprintf(out, "trace: %d events written to %s (open at ui.perfetto.dev)\n",
		rec.Len(), o.traceOut)
	return nil
}

func selectBenchmarks(name string, sc workload.Scale) ([]*workload.Benchmark, error) {
	if name == "all" {
		return workload.Suite(sc)
	}
	if name == "pir-ner" {
		b, err := workload.PIRWithNER(sc)
		if err != nil {
			return nil, err
		}
		return []*workload.Benchmark{b}, nil
	}
	if name == "genai-rag" {
		b, err := workload.GenAIRAG(sc)
		if err != nil {
			return nil, err
		}
		return []*workload.Benchmark{b}, nil
	}
	suite, err := workload.Suite(sc)
	if err != nil {
		return nil, err
	}
	for _, b := range suite {
		if b.Name == name {
			return []*workload.Benchmark{b}, nil
		}
	}
	return nil, fmt.Errorf("unknown benchmark %q", name)
}
