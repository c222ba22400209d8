package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark: timed runs
// start worker processes from os.Executable, which here is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runBench runs the benchmark in-process and returns its exit code,
// standard output, and parsed result line.
func runBench(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	res, err := parseResult(stdout.Bytes())
	if err != nil {
		t.Fatalf("%v: %v\nstdout:\n%s", args, err, stdout.String())
	}
	return code, stdout.String(), res
}

// checkMetrics asserts every named metric is in the result with its
// unit and is printed on a "metric <name> <value> <unit>" line.
func checkMetrics(t *testing.T, out string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing from the result", d.name)
			continue
		}
		if v.Unit != d.unit || v.Unit == "" {
			t.Errorf("metric %s unit %q, want %q", d.name, v.Unit, d.unit)
		}
		line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.name) + ` +\S+ ` + regexp.QuoteMeta(d.unit) + `$`)
		if !line.MatchString(out) {
			t.Errorf("no printed line for metric %s with unit %s", d.name, d.unit)
		}
	}
}

func TestShortRunsEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name+"/timed", func(t *testing.T) {
			code, out, res := runBench(t, "-workload", w.name, "-short", "-seconds", "1")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			checkMetrics(t, out, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			code, out, res := runBench(t, "-workload", w.name, "-short", "-trace", "1")
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			checkMetrics(t, out, res, perLayer())
			raw, err := os.ReadFile(spansPath(w.name))
			if err != nil {
				t.Fatal(err)
			}
			var got []span
			if err := json.Unmarshal(raw, &got); err != nil || len(got) == 0 {
				t.Fatalf("spans file: %v (%d spans)", err, len(got))
			}
		})
	}
}

func TestWrongDigestFailsTheRun(t *testing.T) {
	var digests map[string]string
	if err := json.Unmarshal(recordedDigests, &digests); err != nil {
		t.Fatal(err)
	}
	const key = "short/serve/report"
	if _, ok := digests[key]; !ok {
		t.Fatalf("no recorded digest %s", key)
	}
	digests[key] = digestOf("not the report")
	saved := recordedDigests
	t.Cleanup(func() { recordedDigests = saved })
	recordedDigests, _ = json.Marshal(digests)
	code, out, res := runBench(t, "-workload", "serve", "-short", "-trace", "1")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("a wrong digest passed: exit %d, result %+v\n%s", code, res, out)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "a", Start: 0, End: 10e9},
		{ID: 2, Parent: 1, Name: "b", Start: 1e9, End: 4e9},
		{ID: 3, Parent: 1, Name: "b", Start: 5e9, End: 6e9},
		{ID: 4, Parent: 3, Name: "c", Start: 5e9, End: 5.5e9},
	}}
	self := tr.selfSeconds()
	for name, want := range map[string]float64{"a": 6, "b": 3.5, "c": 0.5} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if got := tr.childSeconds("a", "b"); got != 4 {
		t.Errorf("childSeconds(a, b) = %v, want 4", got)
	}
}
