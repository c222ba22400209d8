package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads printed here match the ones computed from the same values
// elsewhere. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// benchFile is the part of BENCHMARK.json the steadiness report reads.
type benchFile struct {
	EndToEnd  []bound `json:"end_to_end"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

type bound struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// steadySummary is one workload's metric spread over cold runs.
type steadySummary struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3-q1)/median
	Bound    float64   `json:"bound"`
}

// steady runs the benchmark `runs` times per workload, each a cold
// process with its own seed, and prints each end-to-end metric's
// median, quartiles, and quartile spread as a share of its median and
// of its bound. Metrics whose spread exceeds the bound are flagged, and
// the call fails if any are. The workloads and bounds come from
// BENCHMARK.json in the working directory.
func steady(stdout, stderr io.Writer, exe string, runs int, seed0 uint64, seconds int, outPath string) error {
	const benchPath = "BENCHMARK.json"
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	var all []steadySummary
	flagged := 0
	for _, wl := range bf.Workloads {
		w := wl.Name
		vals := make(map[string][]float64)
		for i := 0; i < runs; i++ {
			seed := seed0 + uint64(i)
			res, err := runOnce(stderr, exe, w, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w, seed, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				vals[name] = append(vals[name], v.Value)
			}
			fmt.Fprintf(stderr, "steady: %s seed %d done\n", w, seed)
		}
		fmt.Fprintf(stdout, "%-8s %-14s %12s %12s %12s %8s %6s %8s\n",
			"workload", "metric", "median", "q1", "q3", "spread", "bound", "of-bound")
		for _, b := range bf.EndToEnd {
			xs := vals[b.Name]
			if len(xs) < 2 {
				return fmt.Errorf("%s: metric %s has %d values", w, b.Name, len(xs))
			}
			s := steadySummary{Workload: w, Metric: b.Name, Unit: b.Unit, Values: xs, Median: median(xs), Bound: b.Bound}
			s.Q1, s.Q3 = quartiles(xs)
			s.Spread = (s.Q3 - s.Q1) / s.Median
			flag := ""
			if s.Spread > b.Bound {
				flag = "  EXCEEDS BOUND"
				flagged++
			}
			fmt.Fprintf(stdout, "%-8s %-14s %12.4f %12.4f %12.4f %8.4f %6.2f %8.3f%s\n",
				w, b.Name, s.Median, s.Q1, s.Q3, s.Spread, b.Bound, s.Spread/b.Bound, flag)
			all = append(all, s)
		}
	}
	if outPath != "" {
		meta := hostMeta()
		meta["runs"], meta["first_seed"], meta["seconds"] = runs, seed0, seconds
		b, err := json.MarshalIndent(map[string]any{"meta": meta, "summary": all}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric spreads exceed their bound", flagged)
	}
	return nil
}

// runOnce runs the benchmark as a fresh process and parses its result.
func runOnce(stderr io.Writer, exe, workload string, seed uint64, seconds int) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%v\n%s", err, out.String())
	}
	return parseResult(out.Bytes())
}

// parseResult decodes the last line of a run's standard output.
func parseResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return r, nil
}
