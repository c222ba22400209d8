package dmx

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fullSpec populates every Spec field that can be set together — the
// round-trip must preserve all of them.
func fullSpec() Spec {
	return Spec{
		Apps:       []string{"personal-info-redaction", "sound-detection"},
		Scale:      "test",
		Copies:     2,
		Placement:  "integrated",
		Gen:        4,
		Lanes:      64,
		Discipline: "srs",
		Admit:      32,
		FuseHops:   []FusePair{{App: 0, Hop: 0}},
		Faults:     "drx=5ms/200us,transient=0.01",
		FaultSeed:  42,
		Retry:      4,
		Deadline:   "500us",
		Arrival:    "poisson",
		Rate:       2500,
		Requests:   64,
		Seed:       7,
		SLO:        "30ms",
		Hosts:      2,
		Router:     "least",
		HostAdmit:  48,
		NetCore:    25e9,
		NetNIC:     12.5e9,
		NetLat:     "2us",
	}
}

func TestSpecGoldenRoundTrip(t *testing.T) {
	got, err := MarshalSpec(fullSpec())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "spec_golden.json")
	if *updateAPI {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("spec JSON drifted from golden:\n--- got ---\n%s--- want ---\n%s"+
			"intentional? regenerate with: go test -run TestSpecGoldenRoundTrip -update .", got, want)
	}
	back, err := UnmarshalSpec(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, fullSpec()) {
		t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", back, fullSpec())
	}
	again, err := MarshalSpec(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("second marshal is not byte-identical to the golden")
	}
}

func TestUnmarshalSpecRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field", `{"arrival":"poisson","turbo":9}`, "turbo"},
		{"trailing data", `{"arrival":"poisson"}{"arrival":"open"}`, "trailing"},
		{"wrong type", `{"arrival":"poisson","hosts":"four"}`, "hosts"},
		{"not json", `arrival: poisson`, "parsing spec"},
		{"removed field", `{"shards":2}`, "shards"},
	}
	for _, tc := range cases {
		if _, err := UnmarshalSpec([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestSpecResolveDefaults(t *testing.T) {
	fc, ts, pipes, err := Spec{Arrival: "poisson", Rate: 1000, Requests: 8}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if fc.Hosts != 1 || fc.Base.Placement != BumpInTheWire || fc.Base.Gen != Gen3 {
		t.Errorf("defaults: hosts=%d placement=%v gen=%v", fc.Hosts, fc.Base.Placement, fc.Base.Gen)
	}
	if len(pipes) != 5 {
		t.Errorf("default suite has %d pipelines, want 5", len(pipes))
	}
	if ts.Arrival != Poisson || ts.Rate != 1000 || ts.Requests != 8 {
		t.Errorf("traffic %+v", ts)
	}
}

func TestSpecResolveErrors(t *testing.T) {
	base := Spec{Arrival: "poisson", Scale: "test", Apps: []string{"sound-detection"}}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no arrival", func(s *Spec) { s.Arrival = "" }, "arrival"},
		{"bad arrival", func(s *Spec) { s.Arrival = "bursty" }, "bursty"},
		{"bad scale", func(s *Spec) { s.Scale = "huge" }, "scale"},
		{"bad placement", func(s *Spec) { s.Placement = "fpga" }, "placement"},
		{"bad gen", func(s *Spec) { s.Gen = 6 }, "gen"},
		{"bad discipline", func(s *Spec) { s.Discipline = "lifo" }, "discipline"},
		{"unknown app", func(s *Spec) { s.Apps = []string{"sound-detection", "nope"} },
			`dmx: spec app "nope" (known: video-surveillance, sound-detection, brain-stimulation, ` +
				`personal-info-redaction, database-hash-join, pir-ner, genai-rag)`},
		{"bad duration", func(s *Spec) { s.SLO = "fast" }, "slo"},
		{"bad router", func(s *Spec) { s.Router = "random" }, "policy"},
		{"negative copies", func(s *Spec) { s.Copies = -1 }, "copies"},
		{"negative retry", func(s *Spec) { s.Retry = -1 }, "retry"},
		// Scalar fields are checked before the suite is built, so a bad
		// retry wins over an unknown app.
		{"retry before apps", func(s *Spec) { s.Apps, s.Retry = []string{"no-such-app"}, -1 }, "retry"},
		{"cluster-only on one host", func(s *Spec) { s.NetLat = "2us" }, "hosts > 1"},
	}
	for _, tc := range cases {
		s := base
		tc.mutate(&s)
		if _, _, _, err := s.Resolve(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// A one-host spec must replay byte-identically through both the
// cluster path (Spec.Simulate) and direct resolution — and the fused
// configuration must reach the system (fuse + batch conflicts surface
// at build time).
func TestSpecSimulateReplayAndConflicts(t *testing.T) {
	s := Spec{
		Apps: []string{"personal-info-redaction"}, Scale: "test",
		Placement: "integrated", Arrival: "poisson", Rate: 2000, Requests: 8, Seed: 3,
	}
	rep, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	fc, ts, pipes, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := SimulateCluster(fc, ts, pipes...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() != direct.String() {
		t.Error("Spec.Simulate diverges from resolving and simulating by hand")
	}
	s.FuseHops = []FusePair{{App: 0, Hop: 0}}
	s.BatchWindow = "100us"
	if _, err := s.Simulate(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("fuse+batch conflict: %v", err)
	}
}

func TestFormatDuration(t *testing.T) {
	for _, want := range []string{"200µs", "30ms", "2µs", "1.5ms"} {
		d, err := ParseDuration(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%s) = %q", want, got)
		}
	}
}
