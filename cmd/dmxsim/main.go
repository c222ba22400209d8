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
// "router:" line showing where requests landed. Every load run is a
// fleet; the default one-host fleet has no router choice to show, so
// it prints no router line.
//
// The cluster-only flags (-net-*, -host-admit, -drain) are rejected
// with -hosts 1 rather than silently ignored.
//
// The flags edit one dmx.Spec, and dmx.Spec.Resolve turns it into the
// configuration, the traffic and the pipelines; only -v, -trace,
// -stats, -trace-out and -drain are dmxsim's own. -spec file.json
// loads a serialized Spec document (the format the autotuner emits as
// TuneResult.Winner) as the base. Every field the document sets becomes
// the new default; flags given explicitly on the command line still
// override it:
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"dmx"
	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/sim"
)

// options is the parsed command line: the experiment as a dmx.Spec,
// plus the flags that only shape what dmxsim prints or how a fleet
// drains.
type options struct {
	spec dmx.Spec
	// app is the -app selection: one benchmark name, or "all" for the
	// Table I suite (spec.Apps is derived from it).
	app      string
	verbose  bool
	trace    bool
	stats    bool
	traceOut string
	drain    string
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err == nil {
		// One buffered writer carries everything — the event trace, the
		// report, and the energy line — so output order is exactly
		// emission order regardless of how the pieces are produced.
		out := bufio.NewWriter(os.Stdout)
		err = run(o, out)
		if ferr := out.Flush(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmxsim: %v\n", err)
		os.Exit(1)
	}
}

// parseArgs turns a command line into options: the flags, with a
// -spec document merged underneath them. A malformed flag exits with
// the usage message, as flag.Parse does.
func parseArgs(args []string) (options, error) {
	var o options
	s := &o.spec
	fs := flag.NewFlagSet("dmxsim", flag.ExitOnError)
	fs.StringVar(&o.app, "app", "all", "benchmark name or 'all' (video-surveillance, sound-detection, brain-stimulation, personal-info-redaction, database-hash-join, pir-ner, genai-rag)")
	fs.IntVar(&s.Copies, "apps", 1, "concurrent application instances")
	fs.StringVar(&s.Placement, "placement", "bump", "allcpu | multiaxl | integrated | standalone | pcie | bump")
	fs.IntVar(&s.Gen, "gen", 3, "PCIe generation (3, 4, 5)")
	fs.IntVar(&s.Lanes, "lanes", 128, "DRX RE lanes (power of two)")
	fs.BoolVar(&o.verbose, "v", false, "print per-app breakdowns")
	fs.BoolVar(&o.trace, "trace", false, "print the Fig. 10 event trace")
	fs.BoolVar(&o.stats, "stats", false, "print device utilization and per-stage latency histograms")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Perfetto-loadable trace (Chrome trace-event JSON) to this file")
	fs.StringVar(&s.Arrival, "arrival", "", "load-generation arrival process: closed | open | poisson (empty = one request per app)")
	fs.Float64Var(&s.Rate, "rate", 1000, "offered request rate per app in req/s (open and poisson arrivals)")
	fs.IntVar(&s.Requests, "requests", 16, "requests per app in load-generation mode")
	fs.Uint64Var(&s.Seed, "seed", 1, "PRNG seed for poisson arrivals")
	fs.StringVar(&s.Discipline, "discipline", "fifo", "service discipline at contended stations: fifo | priority | wfq | edf | srs")
	fs.StringVar(&s.BatchWindow, "batch-window", "", "continuous-batching window, e.g. '200us' (empty = batching off)")
	fs.IntVar(&s.BatchMax, "batch-max", 0, "max requests per batch; reaching it flushes the window early (0 = uncapped)")
	fs.IntVar(&s.Admit, "admit", 0, "per-app admission limit on outstanding requests in load mode (0 = unlimited)")
	fs.StringVar(&s.SLO, "slo", "", "per-request latency budget, e.g. '30ms' (deadline-miss accounting; the deadline EDF schedules by)")
	fs.StringVar(&s.Faults, "faults", "", "fault-injection spec, e.g. 'drx=5ms/200us,transient=0.01,link=20ms/1ms/0.25,stall=10ms/500us'")
	fs.Uint64Var(&s.FaultSeed, "fault-seed", 0, "override the fault plan's PRNG seed (0 keeps the spec's seed)")
	fs.IntVar(&s.Retry, "retry", 0, "max attempts per stage under faults (0 = default policy of 3 when -faults is set)")
	fs.StringVar(&s.Deadline, "deadline", "", "per-stage watchdog deadline, e.g. '500us' (empty = no watchdog)")
	fs.IntVar(&s.Hosts, "hosts", 1, "fleet size: replicate the whole configuration onto N hosts behind the cluster router (needs -arrival)")
	fs.StringVar(&s.Router, "router", "score", "cluster routing policy: score (placement-aware headroom) | rr | least")
	fs.IntVar(&s.HostAdmit, "host-admit", 0, "cluster-level cap on outstanding requests per host (0 = unlimited)")
	fs.StringVar(&o.drain, "drain", "", "fault-aware draining as 'N/window', e.g. '3/2ms': drain a host with ≥N incidents inside the trailing window ('3' alone = unbounded window)")
	fs.Float64Var(&s.NetCore, "net-core", 0, "shared core network bandwidth in bytes/s per direction (0 = unmodeled)")
	fs.Float64Var(&s.NetNIC, "net-nic", 0, "per-host NIC bandwidth in bytes/s per direction (0 = unmodeled)")
	fs.StringVar(&s.NetLat, "net-lat", "", "one-way network propagation latency, e.g. '2us' (empty = none)")
	specPath := fs.String("spec", "", "load a JSON experiment Spec (dmx.Spec) as the base configuration; explicitly set flags override its fields")
	fs.Parse(args)
	if *specPath != "" {
		if err := applySpec(&o, *specPath); err != nil {
			return o, fmt.Errorf("-spec: %w", err)
		}
		// Parsing again puts every explicitly given flag back on top.
		fs.Parse(args)
	}
	s.Apps = nil
	if o.app != "all" {
		s.Apps = []string{o.app}
	}
	return o, nil
}

// applySpec makes the Spec document at path the base of o: every field
// the document sets replaces the flag default, and its zero fields —
// which MarshalSpec omits — leave the defaults alone.
func applySpec(o *options, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := dmx.UnmarshalSpec(data)
	if err != nil {
		return err
	}
	switch len(doc.Apps) {
	case 0:
	case 1:
		o.app = doc.Apps[0]
	default:
		return fmt.Errorf("spec selects %d apps; dmxsim runs one benchmark (or 'all') — use dmxbench -exp tune for multi-app specs", len(doc.Apps))
	}
	set, err := dmx.MarshalSpec(doc)
	if err != nil {
		return err
	}
	return json.Unmarshal(set, &o.spec)
}

func run(o options, out io.Writer) error {
	s := o.spec
	oneShot := s.Arrival == ""
	if oneShot {
		if s.Hosts > 1 {
			return fmt.Errorf("-hosts %d needs a load run: set -arrival (closed | open | poisson)", s.Hosts)
		}
		// System.Run is the closed-loop train of one request per app.
		s.Arrival, s.Requests = "closed", 1
	}
	fc, ts, pipes, err := s.Resolve()
	if err != nil {
		return err
	}
	if o.drain != "" {
		if fc.Hosts == 1 {
			return fmt.Errorf("-drain: cluster-only flag needs -hosts > 1 (got -hosts %d)", s.Hosts)
		}
		if fc.Router.DrainIncidents, fc.Router.DrainWindow, err = parseDrain(o.drain); err != nil {
			return err
		}
	}
	if o.trace && fc.Hosts > 1 {
		return fmt.Errorf("-trace is single-host only; use -trace-out or -stats on a fleet")
	}
	cfg := &fc.Base
	if o.trace || o.traceOut != "" || o.stats {
		cfg.Obs = obs.New()
	}
	if o.trace {
		// The Fig. 10 log is a text rendering of the event stream, so
		// it always agrees with -trace-out and -stats.
		cfg.Obs.OnEvent = func(ev *obs.Event) {
			if line, ok := obs.RenderText(ev); ok {
				fmt.Fprintf(out, "  [%12v] %-24s %s\n", sim.Time(ev.TS), ev.App, line)
			}
		}
	}
	header := func() {
		where := ""
		if fc.Hosts > 1 {
			where = fmt.Sprintf(" on %d hosts", fc.Hosts)
		}
		fmt.Fprintf(out, "simulating %d app instance(s) of %s under %v%s (PCIe %v, %d RE lanes)...\n",
			len(pipes), o.app, cfg.Placement, where, cfg.Gen, cfg.DRX.Lanes)
	}
	var makespan sim.Duration
	if oneShot {
		sys, err := dmxsys.New(*cfg, pipes)
		if err != nil {
			return err
		}
		header()
		rep, err := sys.Run()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
		printFaults(out, *cfg, sys.FaultCounts())
		if o.verbose {
			for _, a := range rep.Apps {
				fmt.Fprintf(out, "  %-26s total %-12v kernel %-12v restructure %-12v movement %-12v (%.1f req/s)\n",
					a.App, a.Total, a.KernelTime, a.RestructureTime, a.MovementTime, a.Throughput())
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
		makespan = rep.Makespan
	} else {
		f, err := cluster.New(fc, pipes)
		if err != nil {
			return err
		}
		header()
		rep, err := f.Run(ts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
		if fc.Hosts > 1 {
			fmt.Fprintf(out, "router: policy=%v", fc.Router.Policy)
			for h, perApp := range f.Routed() {
				n := 0
				for _, c := range perApp {
					n += c
				}
				fmt.Fprintf(out, " h%d=%d", h, n)
			}
			fmt.Fprintln(out)
		}
		printFaults(out, *cfg, f.FaultCounts())
		makespan = rep.Makespan
	}
	if o.stats {
		fmt.Fprintln(out, obs.Aggregate(cfg.Obs.Events(), obs.Duration(makespan)))
	}
	return writeTraceFile(o.traceOut, cfg.Obs, out)
}

// parseDrain reads -drain's 'N/window' or 'N' (an unbounded window).
func parseDrain(s string) (int, sim.Duration, error) {
	inc, window, bounded := strings.Cut(s, "/")
	n, err := strconv.Atoi(inc)
	if err != nil || n < 1 {
		return 0, 0, fmt.Errorf("-drain: want 'N/window' or 'N' with N ≥ 1 (got %q)", s)
	}
	if !bounded {
		return n, 0, nil
	}
	d, err := dmx.ParseDuration(window)
	if err != nil {
		return 0, 0, fmt.Errorf("-drain window: %w", err)
	}
	return n, d, nil
}

// printFaults summarizes the incidents a faulted run observed.
func printFaults(out io.Writer, cfg dmxsys.Config, c faults.Counts) {
	if cfg.Faults == nil {
		return
	}
	fmt.Fprintf(out, "faults observed: %d DRX outages, %d link incidents, %d stalls, %d transients\n",
		c.DRXOutages, c.LinkIncidents, c.Stalls, c.Transients)
}

// writeTraceFile dumps the recorded event stream as Perfetto JSON when
// -trace-out was given.
func writeTraceFile(path string, rec *obs.Recorder, out io.Writer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
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
		rec.Len(), path)
	return nil
}
