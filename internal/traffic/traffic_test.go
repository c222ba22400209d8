package traffic

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"dmx/internal/obs"
	"dmx/internal/sim"
)

func TestParseArrivalRoundTrips(t *testing.T) {
	for _, a := range []Arrival{ClosedLoop, OpenLoop, Poisson} {
		got, err := ParseArrival(a.String())
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", a, err)
		}
		if got != a {
			t.Errorf("ParseArrival(%q) = %v", a, got)
		}
	}
	if _, err := ParseArrival("uniform"); err == nil {
		t.Error("ParseArrival accepted an unknown process")
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error, "" = valid
	}{
		{"closed ok", Spec{Arrival: ClosedLoop, Requests: 2}, ""},
		{"poisson ok", Spec{Arrival: Poisson, Rate: 100, Requests: 8}, ""},
		{"too few requests", Spec{Arrival: ClosedLoop, Requests: 1}, "at least 2 requests"},
		{"open needs rate", Spec{Arrival: OpenLoop, Requests: 4}, "positive rate"},
		{"poisson negative rate", Spec{Arrival: Poisson, Rate: -1, Requests: 4}, "positive rate"},
		{"bad arrival", Spec{Arrival: Arrival(9), Requests: 4}, "unknown arrival"},
		{"negative deadline", Spec{Arrival: ClosedLoop, Requests: 4, Deadline: -sim.Microsecond}, "negative deadline"},
		{"negative app deadline", Spec{Arrival: ClosedLoop, Requests: 4,
			AppDeadlines: []sim.Duration{sim.Millisecond, -sim.Microsecond}}, "for app 1"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestDeadlineForPrefersPerAppBudget(t *testing.T) {
	s := Spec{Arrival: ClosedLoop, Requests: 2, Deadline: 10 * sim.Millisecond,
		AppDeadlines: []sim.Duration{2 * sim.Millisecond, 0}}
	if d := s.DeadlineFor(0); d != 2*sim.Millisecond {
		t.Errorf("DeadlineFor(0) = %v, want 2ms", d)
	}
	// A zero entry and an out-of-range app both fall back to Deadline.
	if d := s.DeadlineFor(1); d != 10*sim.Millisecond {
		t.Errorf("DeadlineFor(1) = %v, want fallback 10ms", d)
	}
	if d := s.DeadlineFor(5); d != 10*sim.Millisecond {
		t.Errorf("DeadlineFor(5) = %v, want fallback 10ms", d)
	}
}

func TestRejectedAndBatchesRenderOnlyWhenPresent(t *testing.T) {
	rep := LoadReport{PerApp: []AppLoad{{App: "svc", Requests: 8, Completed: 8}}}
	base := rep.String()
	if strings.Contains(base, "rejected") || strings.Contains(base, "batches") {
		t.Fatalf("clean report leaks admission/batching lines:\n%s", base)
	}
	rep.PerApp[0].Rejected = 3
	rep.PerApp[0].Batches = 2
	rep.PerApp[0].BatchedRequests = 5
	got := rep.String()
	if !strings.Contains(got, "rejected 3 (admission)") {
		t.Errorf("rejection count missing:\n%s", got)
	}
	if !strings.Contains(got, "batches 2 carrying 5 requests (mean size 2.50)") {
		t.Errorf("batch line missing:\n%s", got)
	}
}

func TestClosedLoopArrivalsAreZero(t *testing.T) {
	s := Spec{Arrival: ClosedLoop, Requests: 5}
	for _, d := range collect(s, 0) {
		if d != 0 {
			t.Fatalf("closed-loop arrival offset %v, want 0", d)
		}
	}
}

func TestOpenLoopArrivalsAreExactGrid(t *testing.T) {
	s := Spec{Arrival: OpenLoop, Rate: 1000, Requests: 4}
	got := collect(s, 0)
	for i, d := range got {
		want := sim.Duration(i) * sim.Millisecond
		if d != want {
			t.Errorf("open-loop arrival %d = %v, want %v", i, d, want)
		}
	}
}

func TestPoissonArrivalsDeterministicPerSeed(t *testing.T) {
	s := Spec{Arrival: Poisson, Rate: 2000, Requests: 64, Seed: 7}
	a := collect(s, 3)
	b := collect(s, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across identical calls: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0] != 0 {
		t.Errorf("first Poisson arrival = %v, want 0", a[0])
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not monotone at %d: %v < %v", i, a[i], a[i-1])
		}
	}
	// A different seed or a different app index yields a different
	// timeline (streams are independent).
	s2 := s
	s2.Seed = 8
	if same(a, collect(s2, 3)) {
		t.Error("different seeds produced identical timelines")
	}
	if same(a, collect(s, 4)) {
		t.Error("different apps share one arrival timeline")
	}
}

func TestPoissonMeanGapNearRate(t *testing.T) {
	s := Spec{Arrival: Poisson, Rate: 1000, Requests: 4096, Seed: 42}
	a := collect(s, 0)
	mean := a[len(a)-1].Seconds() / float64(len(a)-1)
	want := 1.0 / s.Rate
	if mean < want*0.9 || mean > want*1.1 {
		t.Errorf("mean inter-arrival %.6g s, want within 10%% of %.6g s", mean, want)
	}
}

// collect drains app's arrival iterator into a slice.
func collect(s Spec, app int) []sim.Duration {
	var out []sim.Duration
	it := s.Arrivals(app)
	for d, ok := it.Next(); ok; d, ok = it.Next() {
		out = append(out, d)
	}
	return out
}

func same(a, b []sim.Duration) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLoadReportStringDeterministic(t *testing.T) {
	mk := func() LoadReport {
		r := LoadReport{Arrival: Poisson, Seed: 9, Makespan: 42 * sim.Microsecond}
		r.PerApp = []AppLoad{{App: "sound-detection", Requests: 16, Completed: 16, Offered: 1000}}
		for i := 1; i <= 16; i++ {
			r.PerApp[0].Latency.Add(obs.Duration(sim.Duration(i) * sim.Microsecond))
		}
		r.Finalize()
		return r
	}
	a, b := mk().String(), mk().String()
	if a != b {
		t.Fatalf("LoadReport.String not deterministic:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "sound-detection") || !strings.Contains(a, "p99") {
		t.Errorf("report missing expected fields:\n%s", a)
	}
}

func TestFinalizeQuantileOrdering(t *testing.T) {
	r := LoadReport{PerApp: []AppLoad{{App: "x"}}}
	for i := 1; i <= 1000; i++ {
		r.PerApp[0].Latency.Add(obs.Duration(sim.Duration(i) * sim.Microsecond))
	}
	r.Finalize()
	a := r.PerApp[0]
	if !(a.P50 <= a.P95 && a.P95 <= a.P99 && a.P99 <= a.Max) {
		t.Errorf("quantiles out of order: p50=%v p95=%v p99=%v max=%v", a.P50, a.P95, a.P99, a.Max)
	}
	if a.Max != 1000*sim.Microsecond {
		t.Errorf("Max = %v, want 1ms", a.Max)
	}
}

// TestArrivalTimelinesPinned pins every arrival process byte for byte:
// the SHA-256 of apps 0–4's offsets (2 000 each, little-endian int64
// picoseconds, concatenated) at three seeds and two rates, recorded
// from the slice-returning generator the iterator replaced.
func TestArrivalTimelinesPinned(t *testing.T) {
	const (
		open50     = "7ac7ce367c6aad1e6f1cf6b68d6e7e9c29948f47c8e400b553360e44104219a7"
		open120k   = "9a61a96f12d79ea85aa912f2388f696c0bac02669542365c2bfbb91f5e4c9358"
		closedLoop = "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc"
	)
	for _, tc := range []struct {
		arrival Arrival
		rate    float64
		seed    uint64
		want    string
	}{
		{OpenLoop, 50, 1, open50},
		{OpenLoop, 50, 7, open50},
		{OpenLoop, 50, 42, open50},
		{OpenLoop, 120000, 1, open120k},
		{OpenLoop, 120000, 7, open120k},
		{OpenLoop, 120000, 42, open120k},
		{Poisson, 50, 1, "60265dc840873b4fffc7e294e3d2a2f00bdb5448a1af7914fdf2e40fe83dfae3"},
		{Poisson, 50, 7, "a3ba6831ebb919c7cf6189edf5494920fb1d7f26ce9e069fcde516dd6d70b1c0"},
		{Poisson, 50, 42, "1515f398cb37900a11bc1c7e73d9b4c6041015f367cd1c37f7d6a652519b367b"},
		{Poisson, 120000, 1, "353557fcc7c0c522e2c835bafebbfa3b20fed38de969b2b1dbe53589a8ab4606"},
		{Poisson, 120000, 7, "bdd9b689ff4deb61494250b2835f6b65862c4053d7c49855e7be590bca128129"},
		{Poisson, 120000, 42, "a2855fe215e2be5f5c7596aedb688f3746b38d3c79b2a575d0389e12abd700e1"},
		{ClosedLoop, 50, 1, closedLoop},
		{ClosedLoop, 50, 7, closedLoop},
		{ClosedLoop, 50, 42, closedLoop},
		{ClosedLoop, 120000, 1, closedLoop},
		{ClosedLoop, 120000, 7, closedLoop},
		{ClosedLoop, 120000, 42, closedLoop},
	} {
		s := Spec{Arrival: tc.arrival, Rate: tc.rate, Requests: 2000, Seed: tc.seed}
		h := sha256.New()
		var buf [8]byte
		for app := 0; app < 5; app++ {
			for _, d := range collect(s, app) {
				binary.LittleEndian.PutUint64(buf[:], uint64(d))
				h.Write(buf[:])
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%v rate %g seed %d: timeline digest %s, want %s", tc.arrival, tc.rate, tc.seed, got, tc.want)
		}
	}
}

// TestFeedSchedulesOnDemand checks Feed against the timeline it feeds:
// every arrival fires at start plus its offset, in order, while at most
// one arrival of the app is pending at any time.
func TestFeedSchedulesOnDemand(t *testing.T) {
	s := Spec{Arrival: Poisson, Rate: 5000, Requests: 300, Seed: 3}
	want := collect(s, 2)
	eng := sim.NewEngine()
	start := sim.Time(7 * sim.Microsecond)
	var got []sim.Duration
	peak := 0
	s.Feed(eng, 2, start, func() {
		got = append(got, eng.Now().Sub(start))
		if p := eng.Pending(); p > peak {
			peak = p
		}
	})
	eng.Run()
	if len(got) != len(want) || !same(got, want) {
		t.Fatalf("fed %d arrivals, want the %d-offset timeline in order", len(got), len(want))
	}
	if peak > 1 {
		t.Fatalf("peak pending %d while feeding one app, want ≤ 1", peak)
	}
}

// TestFeedKeepsUpFrontOrder pins what the reserved seqs buy: an engine
// fed on demand fires exactly what an engine given every arrival up
// front fires, in the same order, including events that tie with an
// arrival's instant — scheduled after Feed but before the arrival is
// fed, or from inside an arrival at its own instant.
func TestFeedKeepsUpFrontOrder(t *testing.T) {
	for _, s := range []Spec{
		{Arrival: ClosedLoop, Requests: 6},
		{Arrival: OpenLoop, Rate: 1e6, Requests: 6},
		{Arrival: Poisson, Rate: 1e6, Requests: 6, Seed: 9},
	} {
		run := func(upFront bool) []string {
			eng := sim.NewEngine()
			var got []string
			start := sim.Time(sim.Microsecond)
			for app := 0; app < 2; app++ {
				app, j := app, 0
				fire := func() {
					got = append(got, fmt.Sprintf("a%d.%d", app, j))
					k := j
					j++
					eng.Schedule(0, func() { got = append(got, fmt.Sprintf("x%d.%d", app, k)) })
				}
				if upFront {
					for _, off := range collect(s, app) {
						eng.At(start.Add(off), fire)
					}
				} else {
					s.Feed(eng, app, start, fire)
				}
			}
			// Ties with every arrival instant, issued after both blocks.
			for i, off := range collect(s, 0) {
				i := i
				eng.At(start.Add(off), func() { got = append(got, fmt.Sprintf("t%d", i)) })
			}
			eng.Run()
			return got
		}
		want, got := run(true), run(false)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: fed on demand fired\n  %v\nscheduled up front fired\n  %v", s.Arrival, got, want)
		}
	}
}
