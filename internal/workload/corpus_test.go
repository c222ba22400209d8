package workload

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dmx/internal/dmxsys"
	"dmx/internal/sweep"
	"dmx/internal/tensor"
)

// TestProbeFootprint pins what a cold paper-scale probe allocates: the
// probes stream their corpora into a byte counter, so the heap sees the
// encoder's own state (deflate's window and hash chains, the table's
// ring of row chunks), never the 15 MB table, the 12 MB gzip blob or
// the 12 MB frame. It is declared ahead of every other paper-scale test
// so that, in a full run, its fills are the ones the rest of the package
// reuses; a probe some earlier test already filled is dropped and
// refilled.
//
// Each probe's stream is teed into a SHA-256 on its way to the counter
// and checked against the size and digest TestCorpusDigests records, so
// the paper-scale hash-join gzip — the slowest corpus to generate — is
// pinned without deflating it a second time.
func TestProbeFootprint(t *testing.T) {
	const limit = 4 << 20
	for _, c := range []struct {
		app  string
		gen  corpus
		size int64
		sha  string
	}{
		{"video-surveillance", videoCorpus(videoSizes(PaperScale)), 323870, "533899fa3c5cc7d052237479766286f989990e9a1b81d484da0caabb27310577"},
		{"database-hash-join", tableCorpus(dbSizes(PaperScale)), 11953987, "d9f1e8670b78c66ff368ffb9ed95a920743096010dccbcb71319f21a46f292ed"},
	} {
		key := probeKey{c.app, PaperScale}
		probeMu.Lock()
		delete(probes, key)
		probeMu.Unlock()
		h := sha256.New()
		tee := func(w io.Writer) error { return c.gen(io.MultiWriter(w, h)) }
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := probeSize(c.app, PaperScale, tee)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: probed %d bytes, allocated %.2f MB", c.app, n, float64(alloc)/(1<<20))
		if alloc > limit {
			t.Errorf("%s: cold probe allocated %d bytes, want at most %d", c.app, alloc, limit)
		}
		if n != c.size {
			t.Errorf("%s: corpus size %d, want %d", c.app, n, c.size)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sha {
			t.Errorf("%s: corpus sha256 %s, want %s", c.app, got, c.sha)
		}
	}
}

// TestTableGzipIgnoresWriteSplits checks what tableChunkRows relies on:
// deflate's output does not depend on how its input is split across
// Writes, so the TestScale table gzips to the same bytes written one
// byte, one row, seven rows, tableChunkRows rows or the whole table at a
// time, and those are the bytes the corpus streams.
func TestTableGzipIgnoresWriteSplits(t *testing.T) {
	g := dbSizes(TestScale)
	rowlen := g.keyDigits + g.amtDigits + g.payBytes
	var raw, want bytes.Buffer
	if err := writeTable(g, &raw); err != nil {
		t.Fatal(err)
	}
	if raw.Len() != g.nrows*rowlen {
		t.Fatalf("table is %d bytes, want %d rows of %d", raw.Len(), g.nrows, rowlen)
	}
	if err := tableCorpus(g)(&want); err != nil {
		t.Fatal(err)
	}
	for _, split := range []int{1, rowlen, 7 * rowlen, tableChunkRows * rowlen, raw.Len()} {
		var got bytes.Buffer
		zw := gzip.NewWriter(&got)
		for b := raw.Bytes(); len(b) > 0; {
			n := min(split, len(b))
			if _, err := zw.Write(b[:n]); err != nil {
				t.Fatal(err)
			}
			b = b[n:]
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d bytes per Write: gzip stream differs from the corpus (%d vs %d bytes)", split, got.Len(), want.Len())
		}
	}
}

// failingSink accepts limit bytes, then fails every Write.
type failingSink struct{ limit, n int }

var errSink = errors.New("sink failed")

func (s *failingSink) Write(b []byte) (int, error) {
	if s.n+len(b) > s.limit {
		return 0, errSink
	}
	s.n += len(b)
	return len(b), nil
}

// goroutinesBackTo waits briefly for the goroutine count to fall back to
// n: a goroutine that has signalled its exit may not have left the
// scheduler yet.
func goroutinesBackTo(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived the call (%d before it)", runtime.NumGoroutine()-n, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTablePipelineStopsOnSinkError fails the table's sink at the start,
// in the middle and one byte before the end of the stream: the corpus
// returns the sink's error and leaves no goroutine behind.
func TestTablePipelineStopsOnSinkError(t *testing.T) {
	g := dbSizes(TestScale)
	g.nrows = 8*tableChunkRows + 5 // several ring turns and a short last chunk
	gen := tableCorpus(g)
	var whole byteCount
	if err := gen(&whole); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, int(whole) / 2, int(whole) - 1} {
		before := runtime.NumGoroutine()
		err := gen(&failingSink{limit: limit})
		if !errors.Is(err, errSink) {
			t.Errorf("sink failing after %d of %d bytes: corpus returned %v, want %v", limit, whole, err, errSink)
		}
		goroutinesBackTo(t, before)
	}
	// The raw table too, failing on its first and on a middle chunk.
	rowlen := g.keyDigits + g.amtDigits + g.payBytes
	for _, limit := range []int{0, 3 * tableChunkRows * rowlen} {
		before := runtime.NumGoroutine()
		if err := writeTable(g, &failingSink{limit: limit}); !errors.Is(err, errSink) {
			t.Errorf("raw table sink failing after %d bytes: got %v, want %v", limit, err, errSink)
		}
		goroutinesBackTo(t, before)
	}
}

// TestCorpusDigests pins every input tensor of the two apps whose
// latency model reads a data-dependent size off its corpus. The sizes
// and SHA-256 digests were recorded from the generators as they stood
// when they still went through tensor.Set and fmt.Sprintf; any change
// to the bytes — and so to the modelled latencies — fails here. The
// paper-scale hash-join row has no digest here: TestProbeFootprint
// checks its size and digest on the one deflate the package pays for
// it, and this row checks only that the pipeline carries that size.
func TestCorpusDigests(t *testing.T) {
	for _, c := range []struct {
		build func(Scale) (*Benchmark, error)
		sc    Scale
		input string
		size  int64
		sha   string
	}{
		{VideoSurveillance, PaperScale, "bitstream", 323870, "533899fa3c5cc7d052237479766286f989990e9a1b81d484da0caabb27310577"},
		{VideoSurveillance, TestScale, "bitstream", 35, "ef4cb8d36a7a48efa61f63e6078cab8b46ed09692b5dd2a5c41efe11e5c0209f"},
		{DatabaseHashJoin, PaperScale, "gz", 11953987, ""},
		{DatabaseHashJoin, TestScale, "gz", 2277, "0b95e6fa65a9a43ef409c14a0d07ee23f467ec7f4247d52dfe1d87ce0d97761e"},
	} {
		b, err := c.build(c.sc)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%s/scale%d", b.Name, c.sc), func(t *testing.T) {
			p := b.Pipeline
			if p.InputBytes != c.size || p.Stages[0].InBytes != c.size {
				t.Errorf("InputBytes %d, Stages[0].InBytes %d, want %d", p.InputBytes, p.Stages[0].InBytes, c.size)
			}
			if c.sha == "" {
				return
			}
			in, err := b.Inputs()
			if err != nil {
				t.Fatal(err)
			}
			if len(in) != 1 || in[c.input] == nil {
				t.Fatalf("inputs %v, want exactly %q", keys(in), c.input)
			}
			x := in[c.input]
			if x.DType() != tensor.Uint8 || x.Rank() != 1 {
				t.Fatalf("%s is %s %v, want a flat uint8 stream", c.input, x.DType(), x.Shape())
			}
			sum := sha256.Sum256(x.Bytes())
			if got := int64(x.SizeBytes()); got != c.size {
				t.Errorf("%s size %d, want %d", c.input, got, c.size)
			}
			if got := hex.EncodeToString(sum[:]); got != c.sha {
				t.Errorf("%s sha256 %s, want %s", c.input, got, c.sha)
			}
		})
	}
}

func TestAppendPaddedMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{6, 7} {
		top := int64(1)
		for i := 0; i < w; i++ {
			top *= 10
		}
		vals := []int64{0, 9, 10, top - 1}
		for i := 0; i < 200; i++ {
			vals = append(vals, rng.Int63n(top))
		}
		for _, v := range vals {
			want := fmt.Sprintf("%0*d", w, v)
			if got := string(appendPadded([]byte("x"), v, w)); got != "x"+want {
				t.Errorf("appendPadded(%d, %d) = %q, want %q", v, w, got[1:], want)
			}
		}
	}
}

// forgetTestScaleProbes drops the TestScale probes so the next
// construction fills them again; paper-scale entries stay.
func forgetTestScaleProbes() {
	probeMu.Lock()
	defer probeMu.Unlock()
	for k := range probes {
		if k.sc == TestScale {
			delete(probes, k)
		}
	}
}

func samePipelineShape(a, b *dmxsys.Pipeline) error {
	if a.Name != b.Name || a.InputBytes != b.InputBytes || a.OutputBytes != b.OutputBytes ||
		len(a.Stages) != len(b.Stages) || len(a.Hops) != len(b.Hops) {
		return fmt.Errorf("pipelines differ: %+v vs %+v", *a, *b)
	}
	for i := range a.Stages {
		if a.Stages[i].InBytes != b.Stages[i].InBytes || a.Stages[i].Accel.Name != b.Stages[i].Accel.Name {
			return fmt.Errorf("stage %d differs", i)
		}
	}
	for i := range a.Hops {
		if a.Hops[i].InBytes != b.Hops[i].InBytes || a.Hops[i].OutBytes != b.Hops[i].OutBytes {
			return fmt.Errorf("hop %d differs", i)
		}
	}
	return nil
}

func TestProbeMemoRunsGeneratorOnce(t *testing.T) {
	for _, build := range []func(Scale) (*Benchmark, error){VideoSurveillance, DatabaseHashJoin} {
		forgetTestScaleProbes()
		start := probeRuns.Load()
		a, err := build(TestScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := build(TestScale)
		if err != nil {
			t.Fatal(err)
		}
		if n := probeRuns.Load() - start; n != 1 {
			t.Errorf("%s: two constructions ran the generator %d times, want 1", a.Name, n)
		}
		if a.Pipeline == b.Pipeline {
			t.Errorf("%s: constructions share one Pipeline", a.Name)
		}
		if err := samePipelineShape(a.Pipeline, b.Pipeline); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

// TestConcurrentSuitesAgree builds the TestScale suite eight times at
// once through the sweep pool, with the probes cold, at 1, 2 and 8
// workers: every build must see the same byte counts, and each probe
// must be filled exactly once.
func TestConcurrentSuitesAgree(t *testing.T) {
	want, err := Suite(TestScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		prev := sweep.SetWorkers(workers)
		forgetTestScaleProbes()
		start := probeRuns.Load()
		got, err := sweep.Map(make([]struct{}, 8), func(int, struct{}) ([]*Benchmark, error) {
			return Suite(TestScale)
		})
		sweep.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if n := probeRuns.Load() - start; n != 2 {
			t.Errorf("workers=%d: %d probe generator runs, want 2 (video, hash-join)", workers, n)
		}
		for _, s := range got {
			for i, b := range s {
				if err := samePipelineShape(b.Pipeline, want[i].Pipeline); err != nil {
					t.Errorf("workers=%d %s: %v", workers, b.Name, err)
				}
			}
		}
	}
}
