package accel

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"dmx/internal/tensor"
)

// Property: the FFT is linear — FFT(a·x + b·y) = a·FFT(x) + b·FFT(y).
func TestFFTLinearityProperty(t *testing.T) {
	const win = 32
	fft, err := NewFFT(1, win)
	if err != nil {
		t.Fatal(err)
	}
	run := func(x []float64) []complex128 {
		in := tensor.New(tensor.Float32, 1, win)
		for i, v := range x {
			in.Set(v, 0, i)
		}
		out, err := fft.Run(map[string]*tensor.Tensor{"audio": in})
		if err != nil {
			t.Fatal(err)
		}
		res := make([]complex128, win/2)
		for b := range res {
			res[b] = out["spectrum"].AtComplex(0, b)
		}
		return res
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, win)
		y := make([]float64, win)
		z := make([]float64, win)
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		for i := range x {
			x[i] = rng.Float64()*2 - 1
			y[i] = rng.Float64()*2 - 1
			z[i] = a*x[i] + b*y[i]
		}
		fx, fy, fz := run(x), run(y), run(z)
		for i := range fz {
			want := complex(a, 0)*fx[i] + complex(b, 0)*fy[i]
			if cmplx.Abs(fz[i]-want) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Parseval-style check: FFT energy matches time-domain energy (up to the
// half-spectrum convention).
func TestFFTEnergyConservation(t *testing.T) {
	const win = 64
	fft, err := NewFFT(1, win)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	in := tensor.New(tensor.Float32, 1, win)
	var timeE float64
	for i := 0; i < win; i++ {
		v := rng.NormFloat64()
		in.Set(v, 0, i)
		timeE += v * v
	}
	out, err := fft.Run(map[string]*tensor.Tensor{"audio": in})
	if err != nil {
		t.Fatal(err)
	}
	// Full-spectrum energy = N × time energy; the accelerator keeps the
	// positive half, so reconstruct using conjugate symmetry: bins 1..N/2-1
	// appear twice, bin 0 once; the (dropped) Nyquist bin is recovered as
	// the residual and must be non-negative and small for noise.
	var freqE float64
	for b := 0; b < win/2; b++ {
		m := cmplx.Abs(out["spectrum"].AtComplex(0, b))
		if b == 0 {
			freqE += m * m
		} else {
			freqE += 2 * m * m
		}
	}
	nyquistE := float64(win)*timeE - freqE
	if nyquistE < -1e-6*freqE {
		t.Errorf("negative Nyquist residual: %v", nyquistE)
	}
	if freqE > float64(win)*timeE*(1+1e-9) {
		t.Errorf("spectrum energy %v exceeds N·time energy %v", freqE, float64(win)*timeE)
	}
	if freqE < 0.8*float64(win)*timeE {
		t.Errorf("spectrum energy %v implausibly low vs %v", freqE, float64(win)*timeE)
	}
}

func TestGzipIncompressibleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	plain := make([]byte, 4096)
	rng.Read(plain)
	gz := gzipBytes(t, plain)
	spec := NewGzipDecompress(len(plain))
	out, err := spec.Run(map[string]*tensor.Tensor{"gz": tensor.FromBytes(gz, len(gz))})
	if err != nil {
		t.Fatal(err)
	}
	if string(out["rows"].Bytes()) != string(plain) {
		t.Error("incompressible round trip failed")
	}
	// Corrupt stream must fail, not produce garbage.
	gz[len(gz)/2] ^= 0xFF
	if _, err := spec.Run(map[string]*tensor.Tensor{"gz": tensor.FromBytes(gz, len(gz))}); err == nil {
		t.Error("corrupted gzip accepted")
	}
}

func TestRegexAcrossRecordBoundariesIsolated(t *testing.T) {
	// PII split across two fixed-width records must NOT match: records
	// are independent scan units (the accelerator's framing contract).
	reclen := 16
	raw := make([]byte, 2*reclen)
	copy(raw, "xxxxxxxxxx123-45")          // record 0 ends mid-SSN
	copy(raw[reclen:], "-6789yyyyyyyyyyy") // record 1 starts with the rest
	spec := NewRegexRedact(2, reclen)
	out, err := spec.Run(map[string]*tensor.Tensor{"records": tensor.FromBytes(raw, 2, reclen)})
	if err != nil {
		t.Fatal(err)
	}
	if out["matches"].At(0) != 0 || out["matches"].At(1) != 0 {
		t.Error("split PII matched across record boundary")
	}
}

func TestVideoDecodeTamperedCount(t *testing.T) {
	// A bitstream whose counts undershoot the pixel total must error.
	dec := NewVideoDecode(100)
	short := EncodeRLE(tensor.New(tensor.Uint8, 50, 3))
	if _, err := dec.Run(map[string]*tensor.Tensor{
		"bitstream": tensor.FromBytes(short, len(short)),
	}); err == nil {
		t.Error("undersized stream accepted")
	}
}

func TestBERTAttentionRespondsToContext(t *testing.T) {
	// Changing one token must be able to change tags elsewhere in the
	// sequence (attention mixes context); verify the mechanism is live.
	nseq, seqlen, dim := 1, 16, 16
	ner := NewBERTNER(nseq, seqlen, dim, 99)
	mk := func(first int) *tensor.Tensor {
		tok := tensor.New(tensor.Int32, nseq, seqlen)
		for i := 0; i < seqlen; i++ {
			tok.Set(float64((i*37)%256), 0, i)
		}
		tok.Set(float64(first), 0, 0)
		return tok
	}
	changed := false
	for first := 0; first < 64 && !changed; first += 3 {
		a, err := ner.Run(map[string]*tensor.Tensor{"tokens": mk(first)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ner.Run(map[string]*tensor.Tensor{"tokens": mk(first + 1)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < seqlen; i++ { // positions other than the changed one
			if a["tags"].At(0, i) != b["tags"].At(0, i) {
				changed = true
				break
			}
		}
	}
	if !changed {
		t.Error("no contextual effect observed; attention may be inert")
	}
}

func TestCPULatencyScalesWithSpeedup(t *testing.T) {
	fft, _ := NewFFT(1, 64)
	batch := int64(1 << 20)
	accelT := fft.Latency(batch)
	cpuT := fft.CPULatency(batch)
	if r := float64(cpuT) / float64(accelT); math.Abs(r-fft.Speedup) > 0.01 {
		t.Errorf("CPU/accel latency ratio %.2f, want %v", r, fft.Speedup)
	}
}

func TestVectorSearchFindsPlantedNeedle(t *testing.T) {
	const (
		nq, dim, corpus = 3, 32, 128
		seed            = 909
	)
	search := NewVectorSearch(nq, dim, corpus, seed)
	queries := tensor.New(tensor.Int8, nq, dim)
	// Plant corpus vectors 5, 17, 99 as the queries themselves: a vector's
	// best dot-product match in the corpus is overwhelmingly itself.
	for qi, c := range []int{5, 17, 99} {
		vec := CorpusVector(corpus, dim, seed, c)
		for d := 0; d < dim; d++ {
			queries.Set(float64(vec[d]), qi, d)
		}
	}
	out, err := search.Run(map[string]*tensor.Tensor{"queries": queries})
	if err != nil {
		t.Fatal(err)
	}
	for qi, want := range []float64{5, 17, 99} {
		if got := out["ids"].At(qi); got != want {
			t.Errorf("query %d retrieved %v, want %v", qi, got, want)
		}
		if out["scores"].At(qi) <= 0 {
			t.Errorf("query %d self-score not positive", qi)
		}
	}
}

func TestEmbedderMeanPoolingBounds(t *testing.T) {
	nq, seqlen, dim := 4, 8, 16
	emb := NewEmbedder(nq, seqlen, dim, 1)
	tok := tensor.New(tensor.Int32, nq, seqlen)
	for q := 0; q < nq; q++ {
		for i := 0; i < seqlen; i++ {
			tok.Set(float64((q*seqlen+i)%512), q, i)
		}
	}
	out, err := emb.Run(map[string]*tensor.Tensor{"tokens": tok})
	if err != nil {
		t.Fatal(err)
	}
	e := out["embeddings"]
	if e.Dim(0) != nq || e.Dim(1) != dim {
		t.Fatalf("embedding shape %v", e.Shape())
	}
	// Mean pooling keeps magnitudes in the table's scale.
	it := tensor.NewIter(e.Shape())
	for it.Next() {
		if v := e.At(it.Index()...); v < -5 || v > 5 {
			t.Fatalf("embedding %v out of plausible range", v)
		}
	}
	// Identical sequences embed identically.
	out2, _ := NewEmbedder(nq, seqlen, dim, 1).Run(map[string]*tensor.Tensor{"tokens": tok})
	if !tensor.Equal(e, out2["embeddings"]) {
		t.Error("embedder not deterministic")
	}
}

func decodeRLE(t *testing.T, pixels int, bs []byte) *tensor.Tensor {
	t.Helper()
	out, err := NewVideoDecode(pixels).Run(map[string]*tensor.Tensor{"bitstream": tensor.FromBytes(bs, len(bs))})
	if err != nil {
		t.Fatal(err)
	}
	return out["yuv"]
}

func TestEncodeRLENonContiguousViews(t *testing.T) {
	// Planar [3, pixels] storage transposed to a [pixels, 3] view, and a
	// row slice of an interleaved frame: neither is contiguous.
	const pixels = 300
	planar := tensor.New(tensor.Uint8, 3, pixels)
	for p := 0; p < pixels; p++ {
		planar.Set(float64(p/7), 0, p)
		planar.Set(float64(p/11), 1, p)
		planar.Set(200, 2, p)
	}
	frame := tensor.New(tensor.Uint8, pixels, 4)
	for p := 0; p < pixels; p++ {
		for c := 0; c < 4; c++ {
			frame.Set(float64((p/5+c)%256), p, c)
		}
	}
	for name, view := range map[string]*tensor.Tensor{
		"transposed":   planar.Transpose(1, 0),
		"channel-cols": frame.Slice(1, 1, 4),
		"row-slice":    planar.Transpose(1, 0).Slice(0, 40, 240),
	} {
		if view.IsContiguous() {
			t.Fatalf("%s: view is contiguous; the test needs a strided one", name)
		}
		bs := EncodeRLE(view)
		if got := decodeRLE(t, view.Dim(0), bs); !tensor.Equal(got, view) {
			t.Errorf("%s: decode(encode(view)) != view", name)
		}
	}
}

func TestEncodeRLESplitsAtCountCap(t *testing.T) {
	for _, c := range []struct {
		pixels int
		counts []int
	}{
		{65535, []int{65535}},
		{65536, []int{65535, 1}},
		{2*65535 + 7, []int{65535, 65535, 7}},
	} {
		yuv := tensor.New(tensor.Uint8, c.pixels, 3)
		yuv.Fill(9)
		bs := EncodeRLE(yuv)
		if len(bs) != 5*len(c.counts) {
			t.Fatalf("%d pixels: %d bytes, want %d records", c.pixels, len(bs), len(c.counts))
		}
		for i, want := range c.counts {
			rec := bs[5*i:]
			if got := int(rec[0]) | int(rec[1])<<8; got != want || rec[2] != 9 || rec[3] != 9 || rec[4] != 9 {
				t.Errorf("%d pixels: record %d = %v, want count %d of (9,9,9)", c.pixels, i, rec[:5], want)
			}
		}
		if !tensor.Equal(decodeRLE(t, c.pixels, bs), yuv) {
			t.Errorf("%d pixels: round trip differs", c.pixels)
		}
	}
	// A value change right at the cap starts a fresh run, not a split one.
	yuv := tensor.New(tensor.Uint8, 65536, 3)
	yuv.Set(1, 65535, 0)
	if bs := EncodeRLE(yuv); len(bs) != 10 || bs[0] != 0xff || bs[1] != 0xff || bs[5] != 1 || bs[7] != 1 {
		t.Errorf("run of 65535 then a new pixel: %v", bs)
	}
}

// TestRLEWriterMatchesEncodeRLE streams each frame through RLEWriter
// and wants EncodeRLE's bytes: a single pixel, runs at and across the
// 65 535 cap, and edges that redraw the colour already showing, which
// must extend the run rather than start a record.
func TestRLEWriterMatchesEncodeRLE(t *testing.T) {
	fill := func(px []byte, n int, y, u, v byte) []byte {
		for i := 0; i < n; i++ {
			px = append(px, y, u, v)
		}
		return px
	}
	// Edges every few pixels from a two-colour palette, as the video
	// generator draws them: about half of them redraw the same colour.
	rng := rand.New(rand.NewSource(3))
	var redraw []byte
	y, u, v := byte(16), byte(128), byte(128)
	for p := 0; p < 5000; p++ {
		if rng.Intn(4) == 0 {
			c := byte(40 * rng.Intn(2))
			y, u, v = c, c+1, c+2
		}
		redraw = append(redraw, y, u, v)
	}
	for name, px := range map[string][]byte{
		"single pixel":            {7, 8, 9},
		"run at the cap":          fill(nil, 65535, 9, 9, 9),
		"run past the cap":        fill(nil, 2*65535+3, 9, 9, 9),
		"new colour at the cap":   fill(fill(nil, 65535, 9, 9, 9), 2, 1, 9, 9),
		"edge redraws the colour": fill(fill(fill(nil, 3, 5, 5, 5), 4, 5, 5, 5), 1, 6, 5, 5),
		"redrawn edges":           redraw,
	} {
		want := EncodeRLE(tensor.FromBytes(px, len(px)/3, 3))
		var got bytes.Buffer
		enc := NewRLEWriter(&got)
		for i := 0; i < len(px); i += 3 {
			enc.Pixel(px[i], px[i+1], px[i+2])
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: streamed %d bytes %v..., EncodeRLE %d bytes %v...", name, got.Len(), head(got.Bytes()), len(want), head(want))
		}
	}
}

func head(b []byte) []byte { return b[:min(len(b), 10)] }

// TestRLEWriterKeepsFirstError: a failed Write stops the stream and
// Close reports it.
func TestRLEWriterKeepsFirstError(t *testing.T) {
	w := &failAfter{n: 1}
	enc := NewRLEWriter(w)
	for c := byte(0); c < 4; c++ {
		enc.Pixel(c, c, c)
	}
	if err := enc.Close(); !errors.Is(err, errSinkFull) {
		t.Errorf("Close = %v, want %v", err, errSinkFull)
	}
	if w.writes != 2 {
		t.Errorf("%d writes reached the sink, want 2 (one accepted, one refused)", w.writes)
	}
}

var errSinkFull = errors.New("sink full")

// failAfter accepts n writes and refuses every later one.
type failAfter struct{ n, writes int }

func (f *failAfter) Write(b []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errSinkFull
	}
	return len(b), nil
}

func TestEncodeRLERejectsNonUint8(t *testing.T) {
	for _, x := range []*tensor.Tensor{
		tensor.New(tensor.Float32, 4, 3),
		tensor.New(tensor.Int8, 4, 3),
		tensor.New(tensor.Uint8, 4, 4),
		tensor.New(tensor.Uint8, 12),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EncodeRLE(%s %v) did not panic", x.DType(), x.Shape())
				}
			}()
			EncodeRLE(x)
		}()
	}
}
