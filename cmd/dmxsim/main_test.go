package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmx"
	"dmx/internal/obs"
	"dmx/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// oneShotArgs is a one-shot run of one app with the per-app breakdown
// and the event trace.
var oneShotArgs = []string{"-app", "sound-detection", "-apps", "1", "-placement", "bump",
	"-gen", "3", "-lanes", "128", "-v", "-trace"}

// parse parses a command line, failing the test on a parse error.
func parse(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// writeSpec saves a Spec document for -spec and returns its path.
func writeSpec(t *testing.T, s dmx.Spec) string {
	t.Helper()
	doc, err := dmx.MarshalSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The full CLI output — event trace, report, per-app breakdown, energy
// line — must be byte-stable run over run. This pins the fix for the
// nondeterministic energy-breakdown ordering (map iteration) and the
// single-writer routing of the trace and the report.
func TestRunOutputIsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(parse(t, oneShotArgs...), &buf); err != nil {
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
	if err := run(parse(t, oneShotArgs...), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(parse(t, oneShotArgs...), &b); err != nil {
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
		args    []string
		wantErr bool
	}{
		{"net-lat-single-host", []string{"-net-lat", "2us"}, true},
		{"net-core-single-host", []string{"-net-core", "50e9"}, true},
		{"net-nic-single-host", []string{"-net-nic", "12.5e9"}, true},
		{"host-admit-single-host", []string{"-host-admit", "8"}, true},
		{"drain-single-host", []string{"-drain", "3/2ms"}, true},
		{"net-multi-host-ok", []string{"-app", "sound-detection", "-hosts", "2",
			"-arrival", "poisson", "-router", "score", "-rate", "2000", "-requests", "4",
			"-net-lat", "2us"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.wantErr {
				args = append(append([]string(nil), oneShotArgs...), tc.args...)
			}
			var buf bytes.Buffer
			err := run(parse(t, args...), &buf)
			if tc.wantErr && err == nil {
				t.Error("cluster-only flag accepted on a single-host run")
			}
			if !tc.wantErr && err != nil {
				t.Errorf("valid flag combination rejected: %v", err)
			}
		})
	}
}

// -drain's count is a whole number ≥ 1, read strictly: trailing text
// or a fraction is an error, not a truncated count.
func TestDrainRejectsMalformedCounts(t *testing.T) {
	for _, bad := range []string{"3abc/2ms", "2.5", "0", "-1", "/2ms", "3/", "3/bogus", "3 /2ms"} {
		if n, w, err := parseDrain(bad); err == nil {
			t.Errorf("-drain %q accepted as %d/%v", bad, n, w)
		}
	}
	for in, want := range map[string]struct {
		n int
		w sim.Duration
	}{
		"3/2ms": {3, 2 * sim.Millisecond},
		"3":     {3, 0},
	} {
		n, w, err := parseDrain(in)
		if err != nil || n != want.n || w != want.w {
			t.Errorf("-drain %q = %d/%v, %v; want %d/%v", in, n, w, err, want.n, want.w)
		}
	}
	// The whole command line refuses the malformed count on a fleet.
	var buf bytes.Buffer
	o := parse(t, "-app", "sound-detection", "-hosts", "2", "-arrival", "poisson",
		"-rate", "2000", "-requests", "4", "-drain", "3abc/2ms")
	if err := run(o, &buf); err == nil || !strings.Contains(err.Error(), "-drain") {
		t.Errorf("-drain 3abc/2ms on a fleet: %v", err)
	}
}

// -trace-out must emit a file that the validator accepts and that is
// byte-identical across runs.
func TestTraceOutValidatesAndIsStable(t *testing.T) {
	dir := t.TempDir()
	capture := func(name string) []byte {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := run(parse(t, "-app", "sound-detection", "-stats", "-trace-out", path), &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
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

// -spec must treat the document as the new base: fields it sets
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
		name    string
		spec    dmx.Spec
		flags   []string
		check   func(t *testing.T, o options)
		wantErr string
	}{
		{"spec fields become base", spec, nil, func(t *testing.T, o options) {
			if o.app != "personal-info-redaction" {
				t.Errorf("app = %q", o.app)
			}
			if got := o.spec; !specEqual(got, spec) {
				t.Errorf("merged spec\n%+v\nwant the document\n%+v", got, spec)
			}
		}, ""},
		{"explicit flags win", spec, []string{"-placement", "bump", "-rate", "1000", "-requests", "16"},
			func(t *testing.T, o options) {
				if o.spec.Placement != "bump" || o.spec.Rate != 1000 || o.spec.Requests != 16 {
					t.Errorf("explicit flags overridden by spec: placement=%q rate=%v requests=%d",
						o.spec.Placement, o.spec.Rate, o.spec.Requests)
				}
				if o.spec.Discipline != "srs" {
					t.Errorf("non-explicit field not taken from spec: discipline=%q", o.spec.Discipline)
				}
			}, ""},
		{"sparse spec keeps defaults", dmx.Spec{Arrival: "open"}, nil, func(t *testing.T, o options) {
			s := o.spec
			if s.Arrival != "open" {
				t.Errorf("arrival = %q", s.Arrival)
			}
			if s.Rate != 1000 || s.Requests != 16 || s.Placement != "bump" || o.app != "all" || s.Apps != nil {
				t.Errorf("defaults lost: rate=%v requests=%d placement=%q app=%q apps=%v",
					s.Rate, s.Requests, s.Placement, o.app, s.Apps)
			}
		}, ""},
		{"fuse hops carried", dmx.Spec{Arrival: "poisson", FuseHops: []dmx.FusePair{{App: 0, Hop: 0}}}, nil,
			func(t *testing.T, o options) {
				if f := o.spec.FuseHops; len(f) != 1 || f[0] != (dmx.FusePair{App: 0, Hop: 0}) {
					t.Errorf("fuse = %v", f)
				}
			}, ""},
		{"multi-app rejected", dmx.Spec{Apps: []string{"a", "b"}, Arrival: "poisson"}, nil, nil, "one benchmark"},
		{"bad scale rejected", dmx.Spec{Scale: "huge", Arrival: "poisson"}, nil, nil, "scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseArgs(append([]string{"-spec", writeSpec(t, tc.spec)}, tc.flags...))
			if err == nil && tc.wantErr != "" {
				// Document values are checked where every Spec is:
				// in Resolve, on the way to the run.
				_, _, _, err = o.spec.Resolve()
			}
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

// specEqual compares two specs by their documents.
func specEqual(a, b dmx.Spec) bool {
	da, errA := dmx.MarshalSpec(a)
	db, errB := dmx.MarshalSpec(b)
	return errA == nil && errB == nil && bytes.Equal(da, db)
}

// A fused spec must drive the whole CLI path: the fuse pairs land in
// the config and the run completes.
func TestRunWithFusedSpec(t *testing.T) {
	o := parse(t, "-spec", writeSpec(t, dmx.Spec{
		Apps: []string{"pir-ner"}, Scale: "test", Placement: "integrated",
		Arrival: "poisson", Rate: 2000, Requests: 8, Seed: 3,
		FuseHops: []dmx.FusePair{{App: 0, Hop: 0}},
	}))
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pir-ner") {
		t.Errorf("report does not mention the app:\n%s", buf.String())
	}
	// The same spec with an illegal placement for fusion must surface
	// the validation error.
	o.spec.Placement = "bump"
	if err := run(o, &buf); err == nil || !strings.Contains(err.Error(), "shared DRX") {
		t.Errorf("fusion on bump: %v", err)
	}
}
