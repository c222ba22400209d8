// Command dmxbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dmxbench                 # run every experiment
//	dmxbench -exp fig11      # run one (table1, fig3, fig5, fig11..fig19)
//	dmxbench -list           # list experiment ids
//	dmxbench -j 4            # cap the sweep worker pool at 4
//	dmxbench -exp cluster -shards 8   # shard each fleet across event lanes
//	dmxbench -exp tune               # autotune the stock serving scenario
//	dmxbench -exp tune -spec my.json # autotune a custom experiment Spec
//
// Output is the text rendering of each experiment — the same rows and
// series the paper reports, regenerated from the simulation. Experiments
// run concurrently on the sweep worker pool (all cores by default; -j
// overrides), but results are always printed in registry order and each
// rendering is bit-for-bit identical to a sequential run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dmx/internal/experiments"
	"dmx/internal/sweep"
)

// renderer is any experiment result.
type renderer interface{ Render() string }

// experiment couples an id to its generator.
type experiment struct {
	id   string
	what string
	run  func() (renderer, error)
}

func main() { os.Exit(run()) }

// run holds main's body so deferred profile writers flush before exit.
func run() int {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	quiet := flag.Bool("q", false, "suppress progress timing on stderr")
	jobs := flag.Int("j", 0, "parallel sweep workers (default: all cores)")
	shards := flag.Int("shards", 1, "event lanes per cluster-experiment fleet (output is byte-identical at any value)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	spec := flag.String("spec", "", "experiment Spec (JSON) to tune instead of the stock scenario (only with -exp tune)")
	flag.Parse()

	if *spec != "" && !strings.EqualFold(*exp, "tune") {
		fmt.Fprintf(os.Stderr, "dmxbench: -spec is only meaningful with -exp tune (got -exp %q)\n", *exp)
		return 1
	}
	tuneSpecPath = *spec

	sweep.SetWorkers(*jobs)
	experiments.SetClusterShards(*shards)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmxbench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dmxbench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dmxbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dmxbench: memprofile: %v\n", err)
			}
		}()
	}

	exps := registry()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.id, e.what)
		}
		return 0
	}

	selected := exps
	if *exp != "" {
		selected = nil
		for _, e := range exps {
			if strings.EqualFold(*exp, e.id) {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "dmxbench: unknown experiment %q; valid ids:\n", *exp)
			for _, e := range exps {
				fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.id, e.what)
			}
			return 1
		}
	}

	// Front-load the shared benchmark corpora so concurrent experiments
	// don't race to duplicate that work. Only worth it when more than
	// one experiment runs.
	if len(selected) > 1 {
		start := time.Now()
		if err := experiments.Warm(); err != nil {
			fmt.Fprintf(os.Stderr, "dmxbench: warm: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[caches warmed in %v]\n\n", time.Since(start).Round(time.Millisecond))
		}
	}

	// Run experiments on the worker pool, but stream results to stdout
	// strictly in registry order: slot i's rendering is delivered on its
	// own channel and printed only once slots 0..i-1 are out.
	type outcome struct {
		text string
		err  error
		took time.Duration
	}
	results := make([]chan outcome, len(selected))
	for i := range results {
		results[i] = make(chan outcome, 1)
	}
	go func() {
		_ = sweep.Each(len(selected), func(i int) error {
			start := time.Now()
			res, err := selected[i].run()
			o := outcome{err: err, took: time.Since(start)}
			if err == nil {
				o.text = res.Render()
			}
			results[i] <- o
			return nil
		})
	}()

	var failed bool
	for i, e := range selected {
		o := <-results[i]
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "dmxbench: %s: %v\n", e.id, o.err)
			failed = true
			continue
		}
		fmt.Println(o.text)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s regenerated in %v]\n\n", e.id, o.took.Round(time.Millisecond))
		}
	}
	if failed {
		return 1
	}
	return 0
}
