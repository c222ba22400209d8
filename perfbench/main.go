// Command perfbench is the simulator's benchmark. It runs one workload
// per invocation and prints every metric by name with its unit, then,
// as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload figures --trace 1
//	bash perfbench/run.sh --steady 10 --seconds 30
//
// Timed runs (--trace 0) set up and run the body in the invoked
// process, repeating the body where the workload allows, and time
// further cold set-ups in worker processes; each metric is a median. Traced runs (--trace 1) run in
// one process and record spans around the calls into each layer; they
// report per-layer metrics. See README.md for the workloads and the
// metric map.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dmx/internal/sweep"
)

//go:embed digests.json
var recordedDigests []byte

type metricDef struct{ name, unit string }

// endToEnd are the metrics a timed run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_req_per_s", "req/s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints. A layer's _s metric is
// the self time of its spans: span time minus the time child spans
// cover.
func perLayer() []metricDef {
	var out []metricDef
	for _, g := range generators {
		out = append(out, metricDef{"experiments." + g.id + "_s", "s"})
	}
	return append(out,
		metricDef{"drx.execute_s", "s"}, metricDef{"drx.executes", "count"},
		metricDef{"drxc.compile_s", "s"}, metricDef{"drxc.compiles", "count"},
		metricDef{"workload.suite_s", "s"},
		metricDef{"dmx.resolve_s", "s"}, metricDef{"dmx.resolve_calls", "count"},
		metricDef{"dmxsys.plan_s", "s"}, metricDef{"dmxsys.instantiate_s", "s"}, metricDef{"dmxsys.run_s", "s"},
		metricDef{"sim.events", "count"}, metricDef{"sim.ns_per_event", "ns"},
		metricDef{"cluster.new_s", "s"}, metricDef{"cluster.run_s", "s"}, metricDef{"cluster.routed", "count"},
		metricDef{"traffic.batches", "count"}, metricDef{"traffic.batched_requests", "count"},
		metricDef{"faults.retries", "count"}, metricDef{"faults.timeouts", "count"},
		metricDef{"obs.events", "count"}, metricDef{"obs.overhead_s", "s"},
		metricDef{"trace.wall_s", "s"},
	)
}

// minSetups is the fewest cold set-ups a timed run measures.
const minSetups = 3

// workerEnv marks a process the timed run started to time one more cold
// set-up. A test binary standing in for the benchmark checks it to run
// main instead of the tests.
const workerEnv = "PERFBENCH_WORKER"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figures, serve, or fleet")
	seed := fs.Uint64("seed", defaultSeed, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 30, "seconds a timed run measures for")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	short := fs.Bool("short", false, "tiny request counts and one figure (tests)")
	steadyRuns := fs.Int("steady", 0, "steadiness report: this many cold runs of each workload in BENCHMARK.json")
	outPath := fs.String("out", "", "steadiness report: also write the summary as JSON here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Every process of the benchmark pins the sweep pool to one worker and
	// leaves GOMAXPROCS at its default.
	sweep.SetWorkers(1)

	if *steadyRuns > 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := steady(stdout, stderr, exe, *steadyRuns, *seed, *seconds, *outPath); err != nil {
			fmt.Fprintln(stderr, "perfbench: steady:", err)
			return 1
		}
		return 0
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want figures, serve, or fleet)\n", *name)
		return 2
	}
	cfg := runConfig{seed: *seed, short: *short}
	if err := json.Unmarshal(recordedDigests, &cfg.digests); err != nil {
		fmt.Fprintln(stderr, "perfbench: digests:", err)
		return 1
	}
	switch {
	case os.Getenv(workerEnv) != "":
		if err := worker(stdout, w, cfg); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *trace == 1:
		return traced(stdout, stderr, w, cfg, spansPath(w.name))
	default:
		return timed(stdout, stderr, w, cfg, *seconds, args)
	}
}

// hostMeta describes the host and build a result was measured on.
func hostMeta() map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"sweep_workers": sweep.Workers(),
		"commit":        commit,
	}
}

// printMeta records the host and run with every result.
func printMeta(stdout io.Writer, w workloadDef, cfg runConfig, mode string) {
	meta := hostMeta()
	meta["workload"] = w.name
	meta["mode"] = mode
	meta["seed"] = cfg.seed
	meta["short"] = cfg.short
	b, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "meta %s\n", b)
}

// printResult prints every metric with its unit, then the result line.
func printResult(stdout io.Writer, defs []metricDef, vals map[string]float64, attempted, failed int) {
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(stdout, "metric %-28s %16.6f %s\n", d.name, v, d.unit)
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, _ := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	fmt.Fprintf(stdout, "%s\n", b)
}

// worker times one cold set-up and prints its seconds.
func worker(stdout io.Writer, w workloadDef, cfg runConfig) error {
	start := time.Now()
	if _, err := w.setup(cfg, nil); err != nil {
		return err
	}
	_, err := fmt.Fprintln(stdout, time.Since(start).Seconds())
	return err
}

// spansPath is where a traced run writes its spans, under the build
// directory the repository ignores.
func spansPath(workload string) string {
	return fmt.Sprintf(".bench_build/perfbench/spans-%s.json", workload)
}

// spawnSetup runs one worker process and returns the set-up seconds it
// measured and how long the whole process took.
func spawnSetup(stderr io.Writer, args []string) (setup, took float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stderr = stderr
	start := time.Now()
	out, err := cmd.Output()
	took = time.Since(start).Seconds()
	if err != nil {
		return 0, 0, fmt.Errorf("set-up worker: %w", err)
	}
	if setup, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64); err != nil {
		return 0, 0, fmt.Errorf("set-up worker output %q: %w", out, err)
	}
	return setup, took, nil
}

// maxRSSMB is the peak resident set of this process in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// timed is a run with tracing off. The process sets the workload up
// cold and runs the body, repeating it where the workload allows until
// only the time the remaining set-ups need is left. It then starts cold
// set-up-only worker processes until at least minSetups set-ups are
// measured and no further one fits in the run's seconds: the program
// caches corpora and DRX timings for the life of a process, so only a
// fresh process can time set-up again.
func timed(stdout, stderr io.Writer, w workloadDef, cfg runConfig, seconds int, args []string) int {
	printMeta(stdout, w, cfg, "timed")
	start := time.Now()
	inst, err := w.setup(cfg, nil)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	setups := []float64{time.Since(start).Seconds()}
	reserve := float64(minSetups-1) * setups[0]
	var (
		walls, allocs, rates []float64
		out                  repOut
	)
	for {
		// Every repetition starts from a collected heap, so the garbage
		// of one does not bill the next.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		r := inst.rep(nil)
		wall := time.Since(t).Seconds()
		runtime.ReadMemStats(&after)
		walls = append(walls, wall)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		rates = append(rates, float64(r.requests)/wall)
		out.ops += r.ops
		out.failed += r.failed
		out.problems = append(out.problems, r.problems...)
		if !w.repeatable || time.Since(start).Seconds()+wall+reserve > float64(seconds) {
			break
		}
	}
	rss := maxRSSMB()
	for last := setups[0]; len(setups) < minSetups || time.Since(start).Seconds()+last <= float64(seconds); {
		s, took, err := spawnSetup(stderr, args)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		setups = append(setups, s)
		last = took
	}
	fmt.Fprintf(stdout, "samples: %d cold set-ups, %d body repetitions, %.1f s\n",
		len(setups), len(walls), time.Since(start).Seconds())
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "check failed:", p)
	}
	printResult(stdout, endToEnd, map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        median(walls),
		"sim_req_per_s": median(rates),
		"alloc_mb":      median(allocs),
		"max_rss_mb":    rss,
	}, out.ops, out.failed)
	if out.failed > 0 {
		return 1
	}
	return 0
}

// traced is a run with tracing on: one process, spans around every
// layer call, per-layer metrics out.
func traced(stdout, stderr io.Writer, w workloadDef, cfg runConfig, spansPath string) int {
	printMeta(stdout, w, cfg, "traced")
	tr := newTracer()
	var out repOut
	m := make(map[string]float64)
	err := func() error {
		var inst instance
		if err := tr.do("setup", func() error {
			var err error
			inst, err = w.setup(cfg, tr)
			return err
		}); err != nil {
			return err
		}
		// rep reports its failures in out, never as an error.
		_ = tr.do("body", func() error {
			out = inst.rep(tr)
			return nil
		})
		return inst.layers(tr, m, &out)
	}()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := tr.write(spansPath); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Every <span name>_s metric the workload did not set is the span's
	// self time.
	self := tr.selfSeconds()
	for _, d := range perLayer() {
		if _, set := m[d.name]; !set && d.unit == "s" {
			m[d.name] = self[strings.TrimSuffix(d.name, "_s")]
		}
	}
	m["drx.executes"] = float64(tr.count("drx.execute"))
	m["drxc.compiles"] = float64(tr.count("drxc.compile"))
	m["dmx.resolve_calls"] = float64(tr.count("dmx.resolve"))
	m["trace.wall_s"] = tr.totalSeconds("body")
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), spansPath)
	printMapping(stdout, w.name, tr, m)
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "check failed:", p)
	}
	printResult(stdout, perLayer(), m, out.ops, out.failed)
	if out.failed > 0 {
		return 1
	}
	return 0
}

// printMapping states, for the traced workload, whether the layer the
// benchmark predicts owns the body does.
func printMapping(stdout io.Writer, name string, tr *tracer, m map[string]float64) {
	body := tr.totalSeconds("body")
	switch name {
	case "figures":
		drxBody := tr.childSeconds("drx.replay_body", "drx.execute")
		fmt.Fprintf(stdout, "mapping: drx.execute at the Fig. 18 lane counts %.2f s vs figures body %.2f s (share %.2f; predicted most)\n",
			drxBody, body, drxBody/body)
	case "serve":
		fmt.Fprintf(stdout, "mapping: dmxsys.run %.2f s of body %.2f s; traffic.batches %.0f (predicted 0)\n",
			m["dmxsys.run_s"], body, m["traffic.batches"])
	case "fleet":
		fmt.Fprintf(stdout, "mapping: cluster.run %.2f s of body %.2f s; traffic.batches %.0f (predicted > 0)\n",
			m["cluster.run_s"], body, m["traffic.batches"])
	}
}
