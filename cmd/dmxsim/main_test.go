package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmx"
	"dmx/internal/dmxsys"
	"dmx/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

func opts() options {
	return options{
		app:       "sound-detection",
		napps:     1,
		placement: "bump",
		gen:       3,
		lanes:     128,
		verbose:   true,
		trace:     true,
	}
}

// The full CLI output — event trace, report, per-app breakdown, energy
// line — must be byte-stable run over run. This pins the fix for the
// nondeterministic energy-breakdown ordering (map iteration) and the
// single-writer routing of the trace and the report.
func TestRunOutputIsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(opts(), &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sound_bump.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}
}

func TestRunOutputIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(opts(), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(opts(), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical runs produced different output")
	}
}

// Cluster-only flags on a single-host run must error out rather than
// silently shape (or not shape) the report.
func TestClusterOnlyFlagsRejected(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr bool
	}{
		{"net-lat-single-host", func(o *options) { o.netLat = "2us" }, true},
		{"net-core-single-host", func(o *options) { o.netCore = 50e9 }, true},
		{"net-nic-single-host", func(o *options) { o.netNIC = 12.5e9 }, true},
		{"host-admit-single-host", func(o *options) { o.hostAdmit = 8 }, true},
		{"drain-single-host", func(o *options) { o.drain = "3/2ms" }, true},
		{"net-multi-host-ok", func(o *options) {
			o.hosts = 2
			o.arrival = "poisson"
			o.router = "score"
			o.rate = 2000
			o.requests = 4
			o.netLat = "2us"
			o.trace = false
			o.verbose = false
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := opts()
			tc.mutate(&o)
			var buf bytes.Buffer
			err := run(o, &buf)
			if tc.wantErr && err == nil {
				t.Error("cluster-only flag accepted on a single-host run")
			}
			if !tc.wantErr && err != nil {
				t.Errorf("valid flag combination rejected: %v", err)
			}
		})
	}
}

// -trace-out must emit a file that the validator accepts and that is
// byte-identical across runs.
func TestTraceOutValidatesAndIsStable(t *testing.T) {
	dir := t.TempDir()
	capture := func(name string) []byte {
		o := opts()
		o.trace = false
		o.verbose = false
		o.stats = true
		o.traceOut = filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := run(o, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(o.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := capture("a.json")
	if _, err := obs.ValidateTrace(first); err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	if !bytes.Equal(first, capture("b.json")) {
		t.Error("trace bytes differ between identical runs")
	}
}

// applySpec must treat the document as the new base: fields it sets
// override flag defaults, while explicitly given flags still win, and
// incoherent documents fail with a message naming the problem.
func TestApplySpecMerge(t *testing.T) {
	spec := dmx.Spec{
		Apps: []string{"personal-info-redaction"}, Scale: "test", Copies: 3,
		Placement: "integrated", Gen: 4, Lanes: 64, Discipline: "srs",
		BatchWindow: "200us", BatchMax: 8, Admit: 32,
		Faults: "transient=0.01", FaultSeed: 9, Retry: 2, Deadline: "500us",
		Arrival: "poisson", Rate: 2500, Requests: 48, Seed: 7, SLO: "30ms",
		Hosts: 2, Router: "least", HostAdmit: 16, NetNIC: 12.5e9, NetLat: "2us",
	}
	cases := []struct {
		name     string
		spec     dmx.Spec
		explicit map[string]bool
		check    func(t *testing.T, o options)
		wantErr  string
	}{
		{"spec fields become base", spec, nil, func(t *testing.T, o options) {
			if o.app != "personal-info-redaction" || o.scale != "test" || o.napps != 3 {
				t.Errorf("workload: app=%q scale=%q napps=%d", o.app, o.scale, o.napps)
			}
			if o.placement != "integrated" || o.gen != 4 || o.lanes != 64 || o.discipline != "srs" {
				t.Errorf("host: %q gen=%d lanes=%d disc=%q", o.placement, o.gen, o.lanes, o.discipline)
			}
			if o.batchWindow != "200us" || o.batchMax != 8 || o.admit != 32 {
				t.Errorf("serving: window=%q max=%d admit=%d", o.batchWindow, o.batchMax, o.admit)
			}
			if o.faults != "transient=0.01" || o.faultSeed != 9 || o.retry != 2 || o.deadline != "500us" {
				t.Errorf("faults: %q seed=%d retry=%d deadline=%q", o.faults, o.faultSeed, o.retry, o.deadline)
			}
			if o.arrival != "poisson" || o.rate != 2500 || o.requests != 48 || o.seed != 7 || o.slo != "30ms" {
				t.Errorf("traffic: %q rate=%v req=%d seed=%d slo=%q", o.arrival, o.rate, o.requests, o.seed, o.slo)
			}
			if o.hosts != 2 || o.router != "least" || o.hostAdmit != 16 || o.netNIC != 12.5e9 || o.netLat != "2us" {
				t.Errorf("cluster: hosts=%d router=%q hostAdmit=%d nic=%v lat=%q",
					o.hosts, o.router, o.hostAdmit, o.netNIC, o.netLat)
			}
		}, ""},
		{"explicit flags win", spec, map[string]bool{"placement": true, "rate": true, "requests": true},
			func(t *testing.T, o options) {
				if o.placement != "bump" || o.rate != 1000 || o.requests != 16 {
					t.Errorf("explicit flags overridden by spec: placement=%q rate=%v requests=%d",
						o.placement, o.rate, o.requests)
				}
				if o.discipline != "srs" {
					t.Errorf("non-explicit field not taken from spec: discipline=%q", o.discipline)
				}
			}, ""},
		{"sparse spec keeps defaults", dmx.Spec{Arrival: "open"}, nil, func(t *testing.T, o options) {
			if o.arrival != "open" {
				t.Errorf("arrival = %q", o.arrival)
			}
			if o.rate != 1000 || o.requests != 16 || o.placement != "bump" {
				t.Errorf("defaults lost: rate=%v requests=%d placement=%q", o.rate, o.requests, o.placement)
			}
		}, ""},
		{"fuse hops carried", dmx.Spec{Arrival: "poisson", FuseHops: []dmx.FusePair{{App: 0, Hop: 0}}}, nil,
			func(t *testing.T, o options) {
				if len(o.fuse) != 1 || o.fuse[0] != (dmxsys.FusePair{App: 0, Hop: 0}) {
					t.Errorf("fuse = %v", o.fuse)
				}
			}, ""},
		{"multi-app rejected", dmx.Spec{Apps: []string{"a", "b"}, Arrival: "poisson"}, nil, nil, "one benchmark"},
		{"bad scale rejected", dmx.Spec{Scale: "huge", Arrival: "poisson"}, nil, nil, "scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := options{app: "all", napps: 1, placement: "bump", gen: 3, lanes: 128,
				rate: 1000, requests: 16, seed: 1, discipline: "fifo", router: "score", hosts: 1}
			o, err := applySpec(tc.spec, base, tc.explicit)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want mention of %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, o)
		})
	}
}

// A fused spec must drive the whole CLI path: the fuse pairs land in
// the config and the run completes.
func TestRunWithFusedSpec(t *testing.T) {
	o, err := applySpec(dmx.Spec{
		Apps: []string{"pir-ner"}, Scale: "test", Placement: "integrated",
		Arrival: "poisson", Rate: 2000, Requests: 8, Seed: 3,
		FuseHops: []dmx.FusePair{{App: 0, Hop: 0}},
	}, options{app: "all", napps: 1, placement: "bump", gen: 3, lanes: 128,
		rate: 1000, requests: 16, seed: 1, hosts: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pir-ner") {
		t.Errorf("report does not mention the app:\n%s", buf.String())
	}
	// The same spec with an illegal placement for fusion must surface
	// the validation error.
	o.placement = "bump"
	if err := run(o, &buf); err == nil || !strings.Contains(err.Error(), "shared DRX") {
		t.Errorf("fusion on bump: %v", err)
	}
}
