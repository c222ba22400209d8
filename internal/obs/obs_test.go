package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Kind: KindInstant})
	r.Span(0, 1, TypeService, PhaseNone, 0, "t", "a", "n", 0)
	r.Instant(0, TypeKernelDone, StepKernelDone, "t", "", "a", "k", 0)
	r.Counter(0, "t", "inflight", 1)
	r.FlowPair(0, 1, TypeP2PDMA, "a", "b", "app", "x", 64)
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder recorded something")
	}
}

func TestNilRecorderEmitDoesNotAllocate(t *testing.T) {
	var r *Recorder
	avg := testing.AllocsPerRun(1000, func() {
		r.Span(0, 1, TypeService, PhaseNone, 0, "t", "a", "n", 0)
		r.Counter(0, "t", "inflight", 3)
		r.Emit(Event{Kind: KindInstant, Type: TypeKernelDone, Track: "t"})
	})
	if avg != 0 {
		t.Fatalf("disabled emit allocates %.1f per op, want 0", avg)
	}
}

func TestRecorderAssignsSequence(t *testing.T) {
	r := New()
	r.Instant(5, TypeKernelEnqueued, 0, "dev", "", "app", "k", 0)
	r.Instant(9, TypeKernelDone, StepKernelDone, "dev", "", "app", "k", 0)
	evs := r.Events()
	if len(evs) != 2 || evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("bad sequence assignment: %+v", evs)
	}
}

func TestOnEventStreams(t *testing.T) {
	r := New()
	var lines []string
	r.OnEvent = func(ev *Event) {
		if s, ok := RenderText(ev); ok {
			lines = append(lines, s)
		}
	}
	r.Instant(0, TypeInputDMA, 0, "cpu", "a0.0", "app", "", 4096)
	r.Span(0, 10, TypeService, PhaseNone, 0, "a0.0", "app", "svc", 0) // no text line
	r.Instant(10, TypeP2PDMA, StepP2PDMA, "a0.0", "a0.1", "app", "", 128)
	want := []string{
		"request input DMA host→a0.0 (4096 B)",
		"P2P DMA a0.0→a0.1 (128 B)",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %q, want %d", len(lines), lines, len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestRenderTextCoversProtocolTypes(t *testing.T) {
	for _, typ := range []Type{TypeInputDMA, TypeKernelEnqueued, TypeKernelDone,
		TypeQueueDMA, TypeRestructure, TypeHostRestructure, TypeTXReady,
		TypeP2PDMA, TypeHostDMA, TypeOutputDMA} {
		if _, ok := RenderText(&Event{Kind: KindInstant, Type: typ}); !ok {
			t.Errorf("no text rendering for %v", typ)
		}
	}
	if _, ok := RenderText(&Event{Kind: KindSpan, Type: TypeP2PDMA}); ok {
		t.Error("spans must not render as protocol lines")
	}
}

// sampleStream builds a small but representative event stream: nested
// spans on one track, a flow pair, instants, and counters.
func sampleStream() *Recorder {
	r := New()
	r.Instant(0, TypeInputDMA, 0, "cpu", "a0.0", "app", "", 1<<20)
	r.Span(0, 5_000_000, TypePhase, PhaseMovement, 0, "app#0", "app", "movement", 0)
	r.Span(5_000_000, 3_000_000, TypeService, PhaseNone, 0, "a0.0:fft", "app", "fft", 0)
	r.Span(5_500_000, 1_000_000, TypeRestructure, PhaseNone, StepRestructure, "a0.0:fft", "app", "inner", 0)
	r.FlowPair(8_000_000, 9_000_000, TypeP2PDMA, "a0.0:fft", "a0.1:svm", "app", "hop0", 1<<19)
	r.Span(8_000_000, 1_000_000, TypeP2PDMA, PhaseNone, StepP2PDMA, "a0.0:fft", "app", "dma", 1<<19)
	r.Counter(5_000_000, "sw0.up", "inflight", 2)
	r.Counter(9_000_000, "sw0.up", "inflight", 0)
	return r
}

func TestWriteTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleStream().Events()); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace does not validate: %v\n%s", err, buf.String())
	}
	if sum.Slices == 0 || sum.Flows == 0 || sum.Counters == 0 || sum.Instants == 0 {
		t.Fatalf("summary misses content: %v", sum)
	}
}

func TestWriteTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteTrace(&a, sampleStream().Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, sampleStream().Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical streams rendered different trace bytes")
	}
}

func TestValidateTraceRejectsPartialOverlap(t *testing.T) {
	bad := `{"traceEvents":[
	 {"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},
	 {"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}]}`
	if _, err := ValidateTrace([]byte(bad)); err == nil {
		t.Fatal("partial overlap not rejected")
	}
	if _, err := ValidateTrace([]byte("{not json")); err == nil {
		t.Fatal("malformed JSON not rejected")
	}
	if _, err := ValidateTrace([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("empty trace not rejected")
	}
}

func TestValidateTraceRejectsDanglingFlow(t *testing.T) {
	bad := `{"traceEvents":[
	 {"name":"a","ph":"s","id":7,"ts":0,"pid":1,"tid":1}]}`
	if _, err := ValidateTrace([]byte(bad)); err == nil {
		t.Fatal("dangling flow not rejected")
	}
}

func TestAggregateMetrics(t *testing.T) {
	m := Aggregate(sampleStream().Events(), 10_000_000)
	if m.BytesMoved != 1<<19 {
		t.Errorf("bytes moved %d, want %d", m.BytesMoved, 1<<19)
	}
	var svc *DeviceMetric
	for i := range m.Devices {
		if m.Devices[i].Name == "a0.0:fft" {
			svc = &m.Devices[i]
		}
	}
	if svc == nil {
		t.Fatal("device a0.0:fft missing from metrics")
	}
	if svc.Jobs != 1 || svc.Busy != 3_000_000 {
		t.Errorf("service metric %+v", svc)
	}
	if svc.Utilization < 0.29 || svc.Utilization > 0.31 {
		t.Errorf("utilization %f, want 0.3", svc.Utilization)
	}
	var mv *PhaseMetric
	for i := range m.Phases {
		if m.Phases[i].Phase == PhaseMovement {
			mv = &m.Phases[i]
		}
	}
	if mv == nil || mv.Hist.Count != 1 || mv.Hist.Sum != 5_000_000 {
		t.Fatalf("movement histogram %+v", mv)
	}
	out := m.String()
	for _, want := range []string{"device utilization", "stage latency", "movement", "a0.0:fft"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics rendering misses %q:\n%s", want, out)
		}
	}
}

// Merge must behave exactly like building one histogram from the union
// of samples — the property a fleet leans on when it folds its
// per-(host, app) partials into a report. The edges worth pinning: merging two
// empties stays empty (not a zero-valued "sample"), a single-sample
// histogram merges without disturbing Min/Max, and samples clamped into
// the last bucket re-derive the same quantiles after the merge as
// before it.
func TestHistogramMergeEdges(t *testing.T) {
	t.Run("empty-empty", func(t *testing.T) {
		var a, b Histogram
		a.Merge(b)
		if a.Count != 0 || a.Sum != 0 || a.Min != 0 || a.Max != 0 {
			t.Errorf("empty⊕empty is not empty: %+v", a)
		}
		if got := a.Quantile(0.99); got != 0 {
			t.Errorf("quantile of empty merge = %v, want 0", got)
		}
	})
	t.Run("empty-into-populated", func(t *testing.T) {
		var a, b Histogram
		a.Add(Duration(3e6))
		want := a
		a.Merge(b)
		if a != want {
			t.Errorf("merging an empty histogram changed the target:\n got %+v\nwant %+v", a, want)
		}
	})
	t.Run("single-sample", func(t *testing.T) {
		var a, b Histogram
		a.Add(Duration(7e6)) // 7 µs
		b.Add(Duration(2e6)) // 2 µs
		a.Merge(b)
		if a.Count != 2 || a.Sum != Duration(9e6) {
			t.Errorf("count/sum after merge: %+v", a)
		}
		// The smaller sample arrived via Merge, so Min must come from the
		// merged side even though the target was non-empty.
		if a.Min != Duration(2e6) || a.Max != Duration(7e6) {
			t.Errorf("min/max after merge: min %v max %v", a.Min, a.Max)
		}
		// And the other direction: a single-sample target absorbing a
		// larger population keeps its own extreme when it is the true one.
		var c, d Histogram
		c.Add(Duration(50e6))
		for i := 0; i < 10; i++ {
			d.Add(Duration(1e6))
		}
		c.Merge(d)
		if c.Min != Duration(1e6) || c.Max != Duration(50e6) || c.Count != 11 {
			t.Errorf("single-sample target merge: %+v", c)
		}
	})
	t.Run("clamped-quantile-rederivation", func(t *testing.T) {
		// Durations ≥ 2^(HistBuckets-1) µs land clamped in the last
		// bucket. Quantiles re-derived after a merge of two clamped
		// partials must match the histogram built from the union — the
		// clamp must not leak samples into a phantom bucket.
		huge := Duration(1e6) * (Duration(1) << (HistBuckets + 2))
		var a, b, union Histogram
		for i := 0; i < 5; i++ {
			a.Add(huge)
			union.Add(huge)
		}
		for i := 0; i < 5; i++ {
			b.Add(huge + Duration(1e6))
			union.Add(huge + Duration(1e6))
		}
		a.Merge(b)
		if a != union {
			t.Fatalf("merged clamped histograms differ from the union:\n got %+v\nwant %+v", a, union)
		}
		if a.Buckets[HistBuckets-1] != 10 {
			t.Errorf("clamped samples in last bucket = %d, want 10", a.Buckets[HistBuckets-1])
		}
		for _, q := range []float64{0.5, 0.99, 1.0} {
			if got, want := a.Quantile(q), union.Quantile(q); got != want {
				t.Errorf("Quantile(%v) = %v after merge, union says %v", q, got, want)
			}
		}
		// Every rank resolves inside the (clamped) last bucket, so the
		// estimate saturates at that bucket's 2^(HistBuckets-1) µs bound —
		// deliberately below Max, which stays exact.
		bound := Duration(uint64(1)<<(HistBuckets-1)) * 1e6
		if got := a.Quantile(1.0); got != bound {
			t.Errorf("clamped p100 = %v, want bucket bound %v", got, bound)
		}
		if a.Max != huge+Duration(1e6) {
			t.Errorf("Max %v lost exactness under clamping", a.Max)
		}
	})
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Add(Duration(1e6)) // 1 µs
	}
	h.Add(Duration(100e6)) // one 100 µs outlier
	if p50 := h.Quantile(0.5); p50 > Duration(2e6) {
		t.Errorf("p50 %v too high", p50)
	}
	if p99 := h.Quantile(0.999); p99 < Duration(64e6) {
		t.Errorf("p99.9 %v misses the outlier bucket", p99)
	}
	if h.Mean() != Duration((99*1e6+100e6)/100) {
		t.Errorf("mean %v", h.Mean())
	}
}
