package workload

import (
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"dmx/internal/accel"
	"dmx/internal/dmxsys"
	"dmx/internal/restructure"
	"dmx/internal/tensor"
)

// Geometry tables per scale. Paper-scale batch sizes land in the 6–16 MB
// range Table I reports.
type soundGeom struct{ frames, win, mels, classes int }

func soundSizes(sc Scale) soundGeom {
	if sc == TestScale {
		return soundGeom{frames: 16, win: 64, mels: 8, classes: 4}
	}
	return soundGeom{frames: 2048, win: 1024, mels: 40, classes: 10} // 8 MB audio batch
}

// SoundDetection: FFT → (spectrogram + mel scale) → SVM (Fig. 2).
func SoundDetection(sc Scale) (*Benchmark, error) {
	g := soundSizes(sc)
	bins := g.win / 2
	fft, err := accel.NewFFT(g.frames, g.win)
	if err != nil {
		return nil, err
	}
	svm := accel.NewSVM(g.frames, g.mels, g.classes, 101)
	mel := restructure.MelSpectrogram(g.frames, bins, g.mels)
	melw := restructure.MelWeights(bins, g.mels)

	audioBytes := int64(g.frames * g.win * 4)
	specBytes := int64(g.frames * bins * 8)
	melBytes := int64(g.frames * g.mels * 4)

	b := &Benchmark{
		Name: "sound-detection",
		Pipeline: &dmxsys.Pipeline{
			Name: "sound-detection",
			Stages: []dmxsys.Stage{
				{Accel: fft, InBytes: audioBytes},
				{Accel: svm, InBytes: melBytes},
			},
			Hops: []dmxsys.Hop{{
				Kernel:   mel,
				InBytes:  specBytes,
				OutBytes: melBytes,
			}},
			InputBytes:  audioBytes,
			OutputBytes: int64(g.frames * 4),
		},
		Inputs: func() (map[string]*tensor.Tensor, error) {
			rng := rand.New(rand.NewSource(11))
			audio := tensor.New(tensor.Float32, g.frames, g.win)
			for f := 0; f < g.frames; f++ {
				// A couple of seeded tones plus noise per frame.
				f1 := float64(1 + rng.Intn(g.win/4))
				f2 := float64(1 + rng.Intn(g.win/4))
				for i := 0; i < g.win; i++ {
					t := float64(i) / float64(g.win)
					v := math.Sin(2*math.Pi*f1*t) + 0.5*math.Sin(2*math.Pi*f2*t) + 0.1*rng.NormFloat64()
					audio.Set(v, f, i)
				}
			}
			return map[string]*tensor.Tensor{"audio": audio}, nil
		},
	}
	b.Exec = chain(b,
		[]map[string]*tensor.Tensor{{"melw": melw}},
		[]func(map[string]*tensor.Tensor) map[string]*tensor.Tensor{
			passthrough("spectrum", "spectrum"),
			passthrough("logmel", "features"),
		})
	return b, nil
}

type videoGeom struct{ pixels, regions, classes int }

func videoSizes(sc Scale) videoGeom {
	if sc == TestScale {
		return videoGeom{pixels: 256, regions: 4, classes: 4}
	}
	return videoGeom{pixels: 1920 * 1080 * 2, regions: 3600, classes: 16} // ~12 MB YUV batch (2 frames)
}

// videoCorpus is the video app's input stream: seeded frames,
// run-length encoded as they are drawn.
func videoCorpus(g videoGeom) corpus {
	return func(w io.Writer) error {
		rng := rand.New(rand.NewSource(22))
		enc := accel.NewRLEWriter(w)
		var y, u, v byte = 16, 128, 128
		for p := 0; p < g.pixels; p++ {
			if rng.Intn(64) == 0 { // new "object edge"
				y, u, v = byte(rng.Intn(236)+16), byte(rng.Intn(225)+16), byte(rng.Intn(225)+16)
			}
			enc.Pixel(y, u, v)
		}
		return enc.Close()
	}
}

// VideoSurveillance: video decode → (color convert, normalize, NCHW,
// quantize) → object detection.
func VideoSurveillance(sc Scale) (*Benchmark, error) {
	g := videoSizes(sc)
	dec := accel.NewVideoDecode(g.pixels)
	det, err := accel.NewObjectDetect(g.pixels, g.regions, g.classes, 202)
	if err != nil {
		return nil, err
	}
	prep := restructure.VideoPreprocess(g.pixels)
	yuvBytes := int64(g.pixels * 3)
	nchwBytes := int64(g.pixels * 3)

	gen := videoCorpus(g)
	// Bitstream size is data-dependent; the latency model reads it off
	// one counted run per process.
	bsBytes, err := probeSize("video-surveillance", sc, gen)
	if err != nil {
		return nil, err
	}

	b := &Benchmark{
		Name: "video-surveillance",
		Pipeline: &dmxsys.Pipeline{
			Name: "video-surveillance",
			Stages: []dmxsys.Stage{
				{Accel: dec, InBytes: bsBytes},
				{Accel: det, InBytes: nchwBytes},
			},
			Hops: []dmxsys.Hop{{
				Kernel:   prep,
				InBytes:  yuvBytes,
				OutBytes: nchwBytes,
			}},
			InputBytes:  bsBytes,
			OutputBytes: int64(g.regions * g.classes * 4),
		},
		Inputs: streamInputs("bitstream", bsBytes, gen),
	}
	b.Exec = chain(b,
		[]map[string]*tensor.Tensor{{
			"csc":  restructure.CSCMatrix(),
			"bias": restructure.CSCBiasProjected(),
		}},
		[]func(map[string]*tensor.Tensor) map[string]*tensor.Tensor{
			passthrough("yuv", "yuv"),
			passthrough("nchw", "nchw"),
		})
	return b, nil
}

type brainGeom struct{ batch, win, hidden, acts int }

func brainSizes(sc Scale) brainGeom {
	if sc == TestScale {
		return brainGeom{batch: 8, win: 64, hidden: 16, acts: 4}
	}
	return brainGeom{batch: 1536, win: 1024, hidden: 256, acts: 8} // 6 MB signal batch
}

// BrainStimulation: FFT over the electromagnetic signal → (power,
// normalize) → PPO reinforcement-learning policy.
func BrainStimulation(sc Scale) (*Benchmark, error) {
	g := brainSizes(sc)
	bins := g.win / 2
	fft, err := accel.NewFFT(g.batch, g.win)
	if err != nil {
		return nil, err
	}
	ppo := accel.NewPPO(g.batch, bins, g.hidden, g.acts, 303)
	norm := restructure.SignalNormalize(g.batch, bins)

	sigBytes := int64(g.batch * g.win * 4)
	freqBytes := int64(g.batch * bins * 8)
	obsBytes := int64(g.batch * bins * 4)

	b := &Benchmark{
		Name: "brain-stimulation",
		Pipeline: &dmxsys.Pipeline{
			Name: "brain-stimulation",
			Stages: []dmxsys.Stage{
				{Accel: fft, InBytes: sigBytes},
				{Accel: ppo, InBytes: obsBytes},
			},
			Hops: []dmxsys.Hop{{
				Kernel:   norm,
				InBytes:  freqBytes,
				OutBytes: obsBytes,
			}},
			InputBytes:  sigBytes,
			OutputBytes: int64(g.batch * g.acts * 4),
		},
		Inputs: func() (map[string]*tensor.Tensor, error) {
			rng := rand.New(rand.NewSource(33))
			sig := tensor.New(tensor.Float32, g.batch, g.win)
			for bb := 0; bb < g.batch; bb++ {
				phase := rng.Float64() * 2 * math.Pi
				freq := 4 + rng.Float64()*24 // alpha/beta-band-ish tones
				for i := 0; i < g.win; i++ {
					t := float64(i) / float64(g.win)
					sig.Set(math.Sin(2*math.Pi*freq*t+phase)+0.2*rng.NormFloat64(), bb, i)
				}
			}
			return map[string]*tensor.Tensor{"audio": sig}, nil
		},
	}
	b.Exec = chain(b,
		[]map[string]*tensor.Tensor{nil},
		[]func(map[string]*tensor.Tensor) map[string]*tensor.Tensor{
			passthrough("spectrum", "freq"),
			passthrough("obs", "obs"),
		})
	return b, nil
}

type pirGeom struct{ nrec, reclen int }

func pirSizes(sc Scale) pirGeom {
	if sc == TestScale {
		return pirGeom{nrec: 32, reclen: 64}
	}
	return pirGeom{nrec: 40960, reclen: 256} // 10 MB text batch
}

const pirKeySeed = "pir-benchmark-key"

// PersonalInfoRedaction: AES-GCM decrypt → (record framing, byte
// sanitize) → regex PII redaction.
func PersonalInfoRedaction(sc Scale) (*Benchmark, error) {
	g := pirSizes(sc)
	aes, err := accel.NewAESGCM(pirKeySeed)
	if err != nil {
		return nil, err
	}
	re := accel.NewRegexRedact(g.nrec, g.reclen)
	frame := restructure.RecordFrame(g.nrec, g.reclen)

	plainBytes := int64(g.nrec * g.reclen)

	b := &Benchmark{
		Name: "personal-info-redaction",
		Pipeline: &dmxsys.Pipeline{
			Name: "personal-info-redaction",
			Stages: []dmxsys.Stage{
				{Accel: aes, InBytes: plainBytes + 16},
				{Accel: re, InBytes: plainBytes},
			},
			Hops: []dmxsys.Hop{{
				Kernel:   frame,
				InBytes:  plainBytes,
				OutBytes: plainBytes,
			}},
			InputBytes:  plainBytes + 16,
			OutputBytes: plainBytes,
		},
		Inputs: func() (map[string]*tensor.Tensor, error) {
			plain := GenerateText(int(plainBytes), 44)
			ct, err := accel.Seal(pirKeySeed, plain)
			if err != nil {
				return nil, err
			}
			return map[string]*tensor.Tensor{"cipher": tensor.FromBytes(ct, len(ct))}, nil
		},
	}
	b.Exec = chain(b,
		[]map[string]*tensor.Tensor{nil},
		[]func(map[string]*tensor.Tensor) map[string]*tensor.Tensor{
			passthrough("plain", "plain"),
			passthrough("records", "records"),
		})
	return b, nil
}

// GenerateText builds a deterministic text corpus seeded with PII
// occurrences for the redaction pipeline.
func GenerateText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"the", "visit", "scheduled", "patient", "record", "followup", "normal", "report"}
	out := make([]byte, 0, n)
	for len(out) < n {
		switch rng.Intn(12) {
		case 0:
			out = append(out, fmt.Sprintf("%03d-%02d-%04d", rng.Intn(1000), rng.Intn(100), rng.Intn(10000))...)
		case 1:
			out = append(out, fmt.Sprintf("user%d@mail%d.com", rng.Intn(1000), rng.Intn(10))...)
		case 2:
			out = append(out, fmt.Sprintf("(%03d) %03d-%04d", rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))...)
		default:
			out = append(out, words[rng.Intn(len(words))]...)
		}
		out = append(out, ' ')
	}
	return out[:n]
}

type dbGeom struct {
	nrows, keyDigits, amtDigits, payBytes, innerRows int
	// keySpace bounds join keys; it must fit keyDigits ASCII digits and
	// is sized so a realistic fraction of probes hit.
	keySpace int32
}

func dbSizes(sc Scale) dbGeom {
	if sc == TestScale {
		return dbGeom{nrows: 128, keyDigits: 6, amtDigits: 7, payBytes: 10, innerRows: 16, keySpace: 64}
	}
	// ~16 MB table batch, ~10% probe hit rate.
	return dbGeom{nrows: 655360, keyDigits: 6, amtDigits: 7, payBytes: 10, innerRows: 100_000, keySpace: 1_000_000}
}

// DatabaseHashJoin: gzip decompress → (parse keys, columnar payload) →
// hash join.
func DatabaseHashJoin(sc Scale) (*Benchmark, error) {
	g := dbSizes(sc)
	rowlen := g.keyDigits + g.amtDigits + g.payBytes
	rowBytes := g.nrows * rowlen
	gz := accel.NewGzipDecompress(rowBytes)
	join := accel.NewHashJoin(g.nrows, g.payBytes, g.innerRows, g.keySpace, 505)
	pack := restructure.ColumnPack(g.nrows, g.keyDigits, g.amtDigits, g.payBytes)

	gen := tableCorpus(g)
	gzBytes, err := probeSize("database-hash-join", sc, gen)
	if err != nil {
		return nil, err
	}
	packedBytes := int64(g.nrows*8) + int64(g.nrows*g.payBytes)

	b := &Benchmark{
		Name: "database-hash-join",
		Pipeline: &dmxsys.Pipeline{
			Name: "database-hash-join",
			Stages: []dmxsys.Stage{
				{Accel: gz, InBytes: gzBytes},
				{Accel: join, InBytes: packedBytes},
			},
			Hops: []dmxsys.Hop{{
				Kernel:   pack,
				InBytes:  int64(rowBytes),
				OutBytes: packedBytes,
			}},
			InputBytes:  gzBytes,
			OutputBytes: int64(g.nrows * 4),
		},
		Inputs: streamInputs("gz", gzBytes, gen),
	}
	b.Exec = chain(b,
		[]map[string]*tensor.Tensor{nil},
		[]func(map[string]*tensor.Tensor) map[string]*tensor.Tensor{
			func(out map[string]*tensor.Tensor) map[string]*tensor.Tensor {
				// The decompressor emits a flat byte run; frame it into rows
				// for the ColumnPack kernel.
				rows := out["rows"].Reshape(g.nrows, rowlen)
				return map[string]*tensor.Tensor{"rows": rows}
			},
			passthrough("keys", "keys", "amounts", "amounts", "paycol", "paycol"),
		})
	return b, nil
}

// tableCorpus is the hash-join app's input stream: the seeded table,
// gzipped as writeTable draws it.
func tableCorpus(g dbGeom) corpus {
	return func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		if err := writeTable(g, zw); err != nil {
			return err
		}
		return zw.Close()
	}
}

// tableChunkRows is how many rows writeTable stages per Write: deflate's
// output does not depend on how its input is split, so this bounds the
// staging buffers without moving a byte of the gzip stream.
const tableChunkRows = 4096

// tableRing is how many chunk buffers writeTable's producer and writer
// pass between them: one being drawn, one being written, one spare to
// absorb the jitter between the two.
const tableRing = 3

// writeTable writes the hash-join's seeded raw table to w in chunks of
// tableChunkRows rows. The rows are drawn on a producer goroutine into a
// ring of tableRing buffers while the caller's goroutine writes the
// chunks before them in order, so drawing overlaps the writer's work
// (deflate, for the corpus). A write error stops the producer, and
// writeTable returns only after the producer has exited.
func writeTable(g dbGeom, w io.Writer) error {
	rowlen := g.keyDigits + g.amtDigits + g.payBytes
	free := make(chan []byte, tableRing)
	full := make(chan []byte, tableRing)
	stop := make(chan struct{})
	for range tableRing {
		free <- make([]byte, 0, min(g.nrows, tableChunkRows)*rowlen)
	}
	go func() {
		// At most tableRing buffers circulate, so the sends to full never
		// block; the producer waits only on free.
		defer close(full)
		rng := rand.New(rand.NewSource(55))
		for r := 0; r < g.nrows; {
			var chunk []byte
			select {
			case chunk = <-free:
			case <-stop:
				return
			}
			for end := min(r+tableChunkRows, g.nrows); r < end; r++ {
				chunk = appendPadded(chunk, int64(rng.Int31n(g.keySpace)), g.keyDigits)
				chunk = appendPadded(chunk, int64(rng.Int31n(10_000_000)), g.amtDigits)
				for p := 0; p < g.payBytes; p++ {
					chunk = append(chunk, byte(rng.Intn(256)))
				}
			}
			full <- chunk
		}
	}()
	var err error
	for chunk := range full {
		if err != nil {
			continue // drain until the producer sees stop
		}
		if _, err = w.Write(chunk); err != nil {
			close(stop)
			continue
		}
		free <- chunk[:0]
	}
	return err
}

// appendPadded appends the decimal digits of v ≥ 0, left-padded with
// zeros to width: fmt's "%0*d" for non-negative values, without the
// formatting machinery.
func appendPadded(dst []byte, v int64, width int) []byte {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], v, 10)
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

type ragGeom struct{ nq, seqlen, dim, corpus int }

func ragSizes(sc Scale) ragGeom {
	if sc == TestScale {
		return ragGeom{nq: 16, seqlen: 8, dim: 16, corpus: 64}
	}
	// 8 MB embedding batch: 8192 queries × 256-dim float32.
	return ragGeom{nq: 8192, seqlen: 64, dim: 256, corpus: 4096}
}

// GenAIRAG is the paper's future-work chain (Sec. IX: "multimodal
// generative AI applications that ... require acceleration beyond neural
// networks (e.g., vector database lookups, search)"): an embedding model
// feeds a vector-search accelerator, with L2-normalize + int8-quantize
// restructuring between them.
func GenAIRAG(sc Scale) (*Benchmark, error) {
	g := ragSizes(sc)
	embed := accel.NewEmbedder(g.nq, g.seqlen, g.dim, 606)
	search := accel.NewVectorSearch(g.nq, g.dim, g.corpus, 707)
	norm := restructure.VecNormalize(g.nq, g.dim)

	tokBytes := int64(g.nq * g.seqlen * 4)
	vecBytes := int64(g.nq * g.dim * 4)
	qvecBytes := int64(g.nq * g.dim)

	b := &Benchmark{
		Name: "genai-rag",
		Pipeline: &dmxsys.Pipeline{
			Name: "genai-rag",
			Stages: []dmxsys.Stage{
				{Accel: embed, InBytes: tokBytes},
				{Accel: search, InBytes: qvecBytes},
			},
			Hops: []dmxsys.Hop{{
				Kernel:   norm,
				InBytes:  vecBytes,
				OutBytes: qvecBytes,
			}},
			InputBytes:  tokBytes,
			OutputBytes: int64(g.nq * 8),
		},
		Inputs: func() (map[string]*tensor.Tensor, error) {
			rng := rand.New(rand.NewSource(66))
			tok := tensor.New(tensor.Int32, g.nq, g.seqlen)
			for q := 0; q < g.nq; q++ {
				for i := 0; i < g.seqlen; i++ {
					tok.Set(float64(rng.Intn(512)), q, i)
				}
			}
			return map[string]*tensor.Tensor{"tokens": tok}, nil
		},
	}
	b.Exec = chain(b,
		[]map[string]*tensor.Tensor{nil},
		[]func(map[string]*tensor.Tensor) map[string]*tensor.Tensor{
			passthrough("embeddings", "vecs"),
			passthrough("qvecs", "queries"),
		})
	return b, nil
}

// PIRWithNER extends Personal Info Redaction with the BERT NER kernel
// (Fig. 16): regex output is reshaped and typecast into token sequences.
func PIRWithNER(sc Scale) (*Benchmark, error) {
	g := pirSizes(sc)
	seqlen := 128
	if sc == TestScale {
		seqlen = 32
	}
	base, err := PersonalInfoRedaction(sc)
	if err != nil {
		return nil, err
	}
	total := g.nrec * g.reclen
	nseq := total / seqlen
	dim := 64
	if sc == TestScale {
		dim = 8
	}
	ner := accel.NewBERTNER(nseq, seqlen, dim, 404)
	prep := restructure.NERPrep(g.nrec, g.reclen, seqlen)

	tokBytes := int64(nseq * seqlen * 4)
	plainBytes := int64(total)

	p := base.Pipeline
	p.Name = "pir-ner"
	p.Stages = append(p.Stages, dmxsys.Stage{Accel: ner, InBytes: tokBytes})
	p.Hops = append(p.Hops, dmxsys.Hop{Kernel: prep, InBytes: plainBytes, OutBytes: tokBytes})
	p.OutputBytes = tokBytes

	b := &Benchmark{
		Name:     "pir-ner",
		Pipeline: p,
		Inputs:   base.Inputs,
	}
	b.Exec = chain(b,
		[]map[string]*tensor.Tensor{nil, nil},
		[]func(map[string]*tensor.Tensor) map[string]*tensor.Tensor{
			passthrough("plain", "plain"),
			passthrough("records", "records"),
			passthrough("redacted", "records"),
			passthrough("tokens", "tokens"),
		})
	return b, nil
}
