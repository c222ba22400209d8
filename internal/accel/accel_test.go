package accel

import (
	"bytes"
	"compress/gzip"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"dmx/internal/sim"
	"dmx/internal/tensor"
)

func TestFFTMatchesDirectDFT(t *testing.T) {
	frames, win := 3, 64
	fft, err := NewFFT(frames, win)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	audio := tensor.New(tensor.Float32, frames, win)
	for f := 0; f < frames; f++ {
		for i := 0; i < win; i++ {
			audio.Set(rng.Float64()*2-1, f, i)
		}
	}
	out, err := fft.Run(map[string]*tensor.Tensor{"audio": audio})
	if err != nil {
		t.Fatal(err)
	}
	spec := out["spectrum"]
	for f := 0; f < frames; f++ {
		frame := make([]float64, win)
		for i := range frame {
			frame[i] = audio.At(f, i)
		}
		ref := DFTReference(frame)
		for b := 0; b < win/2; b++ {
			got := spec.AtComplex(f, b)
			if cmplx.Abs(got-ref[b]) > 1e-3 {
				t.Fatalf("frame %d bin %d: fft %v, dft %v", f, b, got, ref[b])
			}
		}
	}
}

func TestFFTPureTonePeaksAtItsBin(t *testing.T) {
	frames, win := 1, 128
	fft, err := NewFFT(frames, win)
	if err != nil {
		t.Fatal(err)
	}
	const bin = 9
	audio := tensor.New(tensor.Float32, frames, win)
	for i := 0; i < win; i++ {
		audio.Set(math.Sin(2*math.Pi*bin*float64(i)/float64(win)), 0, i)
	}
	out, err := fft.Run(map[string]*tensor.Tensor{"audio": audio})
	if err != nil {
		t.Fatal(err)
	}
	spec := out["spectrum"]
	best, bestMag := -1, 0.0
	for b := 0; b < win/2; b++ {
		if m := cmplx.Abs(spec.AtComplex(0, b)); m > bestMag {
			best, bestMag = b, m
		}
	}
	if best != bin {
		t.Errorf("peak at bin %d, want %d", best, bin)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := NewFFT(1, 100); err == nil {
		t.Error("accepted window 100")
	}
}

func TestSVMDeterministicAndArgmaxConsistent(t *testing.T) {
	rows, dims, classes := 8, 16, 4
	svm := NewSVM(rows, dims, classes, 7)
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(tensor.Float32, rows, dims)
	for r := 0; r < rows; r++ {
		for d := 0; d < dims; d++ {
			x.Set(rng.NormFloat64(), r, d)
		}
	}
	out1, err := svm.Run(map[string]*tensor.Tensor{"features": x})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := NewSVM(rows, dims, classes, 7).Run(map[string]*tensor.Tensor{"features": x})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(out1["labels"], out2["labels"]) {
		t.Error("same seed, different labels")
	}
	labels, scores := out1["labels"], out1["scores"]
	for r := 0; r < rows; r++ {
		lab := int(labels.At(r))
		for c := 0; c < classes; c++ {
			if scores.At(r, c) > scores.At(r, lab) {
				t.Errorf("row %d: class %d outscores label %d", r, c, lab)
			}
		}
	}
}

func TestPPOOutputsBounded(t *testing.T) {
	batch, bins, hidden, acts := 4, 32, 16, 4
	ppo := NewPPO(batch, bins, hidden, acts, 3)
	rng := rand.New(rand.NewSource(2))
	obs := tensor.New(tensor.Float32, batch, bins)
	for b := 0; b < batch; b++ {
		for i := 0; i < bins; i++ {
			obs.Set(rng.NormFloat64()*10, b, i)
		}
	}
	out, err := ppo.Run(map[string]*tensor.Tensor{"obs": obs})
	if err != nil {
		t.Fatal(err)
	}
	acts64 := out["actions"]
	for b := 0; b < batch; b++ {
		for a := 0; a < acts; a++ {
			v := acts64.At(b, a)
			if v < -1 || v > 1 {
				t.Errorf("action [%d,%d] = %v outside tanh range", b, a, v)
			}
		}
	}
}

func TestVideoRLERoundTrip(t *testing.T) {
	pixels := 1024
	rng := rand.New(rand.NewSource(5))
	yuv := tensor.New(tensor.Uint8, pixels, 3)
	// Runs of identical pixels (video-like), with occasional changes.
	var y, u, v float64
	for p := 0; p < pixels; p++ {
		if rng.Intn(16) == 0 {
			y, u, v = float64(rng.Intn(256)), float64(rng.Intn(256)), float64(rng.Intn(256))
		}
		yuv.Set(y, p, 0)
		yuv.Set(u, p, 1)
		yuv.Set(v, p, 2)
	}
	bs := EncodeRLE(yuv)
	if len(bs) >= pixels*3 {
		t.Errorf("RLE did not compress: %d bytes for %d raw", len(bs), pixels*3)
	}
	dec := NewVideoDecode(pixels)
	out, err := dec.Run(map[string]*tensor.Tensor{"bitstream": tensor.FromBytes(bs, len(bs))})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(yuv, out["yuv"]) {
		t.Error("decode(encode(yuv)) != yuv")
	}
}

func TestVideoDecodeRejectsBadStreams(t *testing.T) {
	dec := NewVideoDecode(16)
	if _, err := dec.Run(map[string]*tensor.Tensor{
		"bitstream": tensor.FromBytes([]byte{1, 2, 3}, 3),
	}); err == nil {
		t.Error("accepted truncated stream")
	}
	// Stream describing too many pixels.
	long := EncodeRLE(tensor.New(tensor.Uint8, 32, 3))
	if _, err := dec.Run(map[string]*tensor.Tensor{
		"bitstream": tensor.FromBytes(long, len(long)),
	}); err == nil {
		t.Error("accepted over-long stream")
	}
}

func TestObjectDetectShapeAndRange(t *testing.T) {
	pixels, regions, classes := 256, 4, 8
	det, err := NewObjectDetect(pixels, regions, classes, 11)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(tensor.Int8, 3, pixels)
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 3; c++ {
		for p := 0; p < pixels; p++ {
			x.Set(float64(rng.Intn(255)-127), c, p)
		}
	}
	out, err := det.Run(map[string]*tensor.Tensor{"nchw": x})
	if err != nil {
		t.Fatal(err)
	}
	d := out["detections"]
	if d.Dim(0) != regions || d.Dim(1) != classes {
		t.Fatalf("detections shape %v", d.Shape())
	}
	for r := 0; r < regions; r++ {
		for c := 0; c < classes; c++ {
			v := d.At(r, c)
			if v <= 0 || v >= 1 {
				t.Errorf("detection [%d,%d] = %v outside (0,1)", r, c, v)
			}
		}
	}
	if _, err := NewObjectDetect(100, 3, 2, 1); err == nil {
		t.Error("accepted indivisible region split")
	}
}

func TestAESGCMRoundTripAndTamperDetection(t *testing.T) {
	spec, err := NewAESGCM("test-key")
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte("SSN 123-45-6789 lives here")
	ct, err := Seal("test-key", plain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Run(map[string]*tensor.Tensor{"cipher": tensor.FromBytes(ct, len(ct))})
	if err != nil {
		t.Fatal(err)
	}
	if string(out["plain"].Bytes()) != string(plain) {
		t.Error("decrypt(encrypt(x)) != x")
	}
	// Bit-flip must fail authentication.
	ct[0] ^= 1
	if _, err := spec.Run(map[string]*tensor.Tensor{"cipher": tensor.FromBytes(ct, len(ct))}); err == nil {
		t.Error("tampered ciphertext accepted")
	}
}

func TestRegexRedactsPII(t *testing.T) {
	reclen := 64
	recs := [][]byte{
		[]byte("my ssn is 123-45-6789 ok"),
		[]byte("mail me at bob@example.com today"),
		[]byte("call (619) 555-0100 now"),
		[]byte("nothing sensitive here at all"),
	}
	raw := make([]byte, 0, len(recs)*reclen)
	for _, r := range recs {
		padded := make([]byte, reclen)
		copy(padded, r)
		for i := len(r); i < reclen; i++ {
			padded[i] = ' '
		}
		raw = append(raw, padded...)
	}
	spec := NewRegexRedact(len(recs), reclen)
	out, err := spec.Run(map[string]*tensor.Tensor{
		"records": tensor.FromBytes(raw, len(recs), reclen),
	})
	if err != nil {
		t.Fatal(err)
	}
	red := out["redacted"].Bytes()
	matches := out["matches"]
	if string(red[:reclen][10:21]) != "XXXXXXXXXXX" {
		t.Errorf("SSN not redacted: %q", red[:24])
	}
	wantMatches := []float64{1, 1, 1, 0}
	for i, w := range wantMatches {
		if got := matches.At(i); got != w {
			t.Errorf("record %d matches = %v, want %v", i, got, w)
		}
	}
	// Non-PII text untouched.
	if string(red[3*reclen:3*reclen+7]) != "nothing" {
		t.Error("clean record was modified")
	}
}

// gzipBytes compresses plain the way the hash-join generator does: one
// default-level gzip.Writer.
func gzipBytes(t *testing.T, plain []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGzipRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	plain := make([]byte, 4096)
	for i := range plain {
		plain[i] = byte('a' + rng.Intn(4)) // compressible
	}
	gz := gzipBytes(t, plain)
	if len(gz) >= len(plain) {
		t.Errorf("gzip did not compress: %d vs %d", len(gz), len(plain))
	}
	spec := NewGzipDecompress(len(plain))
	out, err := spec.Run(map[string]*tensor.Tensor{"gz": tensor.FromBytes(gz, len(gz))})
	if err != nil {
		t.Fatal(err)
	}
	if string(out["rows"].Bytes()) != string(plain) {
		t.Error("decompress(compress(x)) != x")
	}
	// Wrong expected size must error.
	bad := NewGzipDecompress(len(plain) - 1)
	if _, err := bad.Run(map[string]*tensor.Tensor{"gz": tensor.FromBytes(gz, len(gz))}); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestHashJoinMatchesOracle(t *testing.T) {
	n, payBytes, innerRows := 512, 8, 128
	const keySpace = 1024
	const seed = 77
	spec := NewHashJoin(n, payBytes, innerRows, keySpace, seed)
	oracle := InnerTable(innerRows, keySpace, seed)

	rng := rand.New(rand.NewSource(13))
	keys := tensor.New(tensor.Int32, n)
	amounts := tensor.New(tensor.Int32, n)
	for i := 0; i < n; i++ {
		keys.Set(float64(rng.Int31n(keySpace)), i)
		amounts.Set(float64(rng.Int31n(1000)), i)
	}
	pay := tensor.New(tensor.Uint8, payBytes, n)
	out, err := spec.Run(map[string]*tensor.Tensor{"keys": keys, "amounts": amounts, "paycol": pay})
	if err != nil {
		t.Fatal(err)
	}
	joined := out["joined"]
	var hits int
	var wantSum int64
	for i := 0; i < n; i++ {
		k := int32(keys.At(i))
		want := float64(-1)
		if v, ok := oracle[k]; ok {
			want = float64(v)
			wantSum += int64(amounts.At(i))
			hits++
		}
		// int32 stored via float64: compare in int32 space.
		if int32(joined.At(i)) != int32(want) {
			t.Fatalf("probe %d key %d: joined %v, want %v", i, k, joined.At(i), want)
		}
	}
	if int(out["hits"].At(0)) != hits {
		t.Errorf("hits = %v, oracle %d", out["hits"].At(0), hits)
	}
	if int64(out["sum"].At(0)) != wantSum {
		t.Errorf("sum = %v, oracle %d", out["sum"].At(0), wantSum)
	}
	if hits == 0 || hits == n {
		t.Errorf("degenerate hit rate %d/%d; workload not exercising both paths", hits, n)
	}
}

func TestBERTNERDeterministicShape(t *testing.T) {
	nseq, seqlen, dim := 2, 16, 8
	ner := NewBERTNER(nseq, seqlen, dim, 21)
	tok := tensor.New(tensor.Int32, nseq, seqlen)
	rng := rand.New(rand.NewSource(4))
	for s := 0; s < nseq; s++ {
		for i := 0; i < seqlen; i++ {
			tok.Set(float64(rng.Intn(256)), s, i)
		}
	}
	out1, err := ner.Run(map[string]*tensor.Tensor{"tokens": tok})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := NewBERTNER(nseq, seqlen, dim, 21).Run(map[string]*tensor.Tensor{"tokens": tok})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(out1["tags"], out2["tags"]) {
		t.Error("same seed, different tags")
	}
	tags := out1["tags"]
	for s := 0; s < nseq; s++ {
		for i := 0; i < seqlen; i++ {
			v := tags.At(s, i)
			if v != 0 && v != 1 {
				t.Errorf("tag [%d,%d] = %v not binary", s, i, v)
			}
		}
	}
}

// TestBERTNERDrawsWeightsOnFirstRun pins that building the Fig. 16
// accelerator draws none of its weights (the simulator only times it),
// and that concurrent first Runs on one Spec share a single draw with
// the same seed and order as a fresh Spec's.
func TestBERTNERDrawsWeightsOnFirstRun(t *testing.T) {
	// PIRWithNER's paper-scale sizes: 40960 records of 256 bytes cut
	// into 128-token sequences, model width 64.
	const builds, limit = 8, 16 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		NewBERTNER(40960*256/128, 128, 64, 404)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > limit {
		t.Errorf("NewBERTNER allocated %d bytes per build, want at most %d", per, limit)
	}

	nseq, seqlen, dim := 2, 16, 8
	tok := tensor.New(tensor.Int32, nseq, seqlen)
	rng := rand.New(rand.NewSource(5))
	for s := 0; s < nseq; s++ {
		for i := 0; i < seqlen; i++ {
			tok.Set(float64(rng.Intn(256)), s, i)
		}
	}
	want, err := NewBERTNER(nseq, seqlen, dim, 21).Run(map[string]*tensor.Tensor{"tokens": tok})
	if err != nil {
		t.Fatal(err)
	}
	shared := NewBERTNER(nseq, seqlen, dim, 21)
	got := make([]map[string]*tensor.Tensor, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = shared.Run(map[string]*tensor.Tensor{"tokens": tok})
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !tensor.Equal(got[g]["tags"], want["tags"]) {
			t.Errorf("goroutine %d: tags differ from a fresh Spec's", g)
		}
	}
}

func TestLatencyModelSane(t *testing.T) {
	fft, _ := NewFFT(1, 64)
	l1 := fft.Latency(1 << 20)
	l2 := fft.Latency(8 << 20)
	if l2 <= l1 {
		t.Error("latency not increasing with batch size")
	}
	if fft.CPULatency(1<<20) <= l1 {
		t.Error("CPU latency not slower than accelerator")
	}
	if fft.Energy(sim.Second) != fft.PowerW {
		t.Error("energy over 1s must equal power")
	}
}

func TestGeomeanSpeedupNearPaper(t *testing.T) {
	fft, _ := NewFFT(1, 64)
	det, _ := NewObjectDetect(256, 4, 8, 1)
	aes, _ := NewAESGCM("k")
	pool := []*Spec{
		NewVideoDecode(16), det, fft, NewSVM(1, 1, 2, 1), NewPPO(1, 1, 1, 1, 1),
		aes, NewRegexRedact(1, 8), NewGzipDecompress(1),
		NewHashJoin(1, 1, 1, 10, 1), NewBERTNER(1, 1, 4, 1),
	}
	g := GeomeanSpeedup(pool)
	// Paper reports 6.5x geometric mean per-accelerator speedup.
	if g < 5.5 || g > 7.5 {
		t.Errorf("geomean speedup %.2f, want ~6.5", g)
	}
}

// Property: Latency is additive-monotone — more bytes never run faster.
func TestLatencyMonotoneProperty(t *testing.T) {
	spec := NewRegexRedact(1, 8)
	prop := func(a, b uint32) bool {
		x, y := int64(a%(1<<24)), int64(b%(1<<24))
		if x > y {
			x, y = y, x
		}
		return spec.Latency(x) <= spec.Latency(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
