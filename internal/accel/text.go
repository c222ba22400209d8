package accel

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sync"

	"dmx/internal/sim"
	"dmx/internal/tensor"
)

// DeriveKey expands a deterministic seed string into an AES-256 key, so
// the workload generator and the accelerator agree without shared state.
func DeriveKey(seed string) []byte {
	sum := sha256.Sum256([]byte("dmx-aes:" + seed))
	return sum[:]
}

// DeriveNonce expands a seed string into a 12-byte GCM nonce.
func DeriveNonce(seed string) []byte {
	sum := sha256.Sum256([]byte("dmx-nonce:" + seed))
	return sum[:12]
}

// NewAESGCM builds the decryption accelerator of Personal Info
// Redaction, a real AES-256-GCM using the standard library (the paper
// uses the Vitis AES-GCM HLS kernel).
//
// Input: "cipher" uint8[n] (ciphertext||tag). Output: "plain" uint8[n-16].
func NewAESGCM(keySeed string) (*Spec, error) {
	block, err := aes.NewCipher(DeriveKey(keySeed))
	if err != nil {
		return nil, fmt.Errorf("accel: aes-gcm: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("accel: aes-gcm: %w", err)
	}
	nonce := DeriveNonce(keySeed)
	return &Spec{
		Name:           "aes-gcm",
		ThroughputBPS:  5.0e9,
		Speedup:        12.0,
		PowerW:         10,
		LaunchOverhead: 6 * sim.Microsecond,
		Run: func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			ct, err := getIn("aes-gcm", in, "cipher")
			if err != nil {
				return nil, err
			}
			plain, err := gcm.Open(nil, nonce, ct.Contiguous().Bytes(), nil)
			if err != nil {
				return nil, fmt.Errorf("accel: aes-gcm: authentication failed: %w", err)
			}
			return map[string]*tensor.Tensor{
				"plain": tensor.FromBytes(plain, len(plain)),
			}, nil
		},
	}, nil
}

// Seal encrypts a plaintext with the same derived key/nonce, for the
// workload generator.
func Seal(keySeed string, plain []byte) ([]byte, error) {
	block, err := aes.NewCipher(DeriveKey(keySeed))
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return gcm.Seal(nil, DeriveNonce(keySeed), plain, nil), nil
}

// PII patterns the redaction accelerator scans for.
var piiPatterns = []*regexp.Regexp{
	regexp.MustCompile(`\d{3}-\d{2}-\d{4}`),                    // SSN
	regexp.MustCompile(`[A-Za-z0-9._]+@[A-Za-z0-9.]+\.[a-z]+`), // email
	regexp.MustCompile(`\(\d{3}\) \d{3}-\d{4}`),                // phone
}

// NewRegexRedact builds the PII-detection accelerator: each fixed-width
// record is scanned with the pattern set and matches are blanked with
// 'X' (Sec. VI: "detect personally identifiable information and redact
// them from the text with blanks").
//
// Input: "records" uint8[nrec, reclen]. Outputs: "redacted"
// uint8[nrec, reclen], "matches" int32[nrec].
func NewRegexRedact(nrec, reclen int) *Spec {
	return &Spec{
		Name:           "regex",
		ThroughputBPS:  1.5e9, // the throughput limiter of PIR (Fig. 13)
		Speedup:        4.0,
		PowerW:         14,
		LaunchOverhead: 8 * sim.Microsecond,
		Run: func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			recs, err := getIn("regex", in, "records")
			if err != nil {
				return nil, err
			}
			if recs.Dim(0) != nrec || recs.Dim(1) != reclen {
				return nil, fmt.Errorf("accel: regex: input shape %v, want [%d %d]", recs.Shape(), nrec, reclen)
			}
			raw := append([]byte(nil), recs.Contiguous().Bytes()...)
			matches := tensor.New(tensor.Int32, nrec)
			for r := 0; r < nrec; r++ {
				rec := raw[r*reclen : (r+1)*reclen]
				count := 0
				for _, pat := range piiPatterns {
					for _, loc := range pat.FindAllIndex(rec, -1) {
						count++
						for i := loc[0]; i < loc[1]; i++ {
							rec[i] = 'X'
						}
					}
				}
				matches.Set(float64(count), r)
			}
			return map[string]*tensor.Tensor{
				"redacted": tensor.FromBytes(raw, nrec, reclen),
				"matches":  matches,
			}, nil
		},
	}
}

// NewBERTNER builds the Fig. 16 extension kernel: a single-layer
// transformer encoder (one self-attention head plus a feed-forward
// block, seeded weights) tagging each token as entity/non-entity. A toy
// stand-in for the fine-tuned BERT the paper cites, with the same
// data-flow shape: token IDs in, per-token tags out.
//
// Input: "tokens" int32[nseq, seqlen]. Output: "tags" int32[nseq, seqlen].
//
// The weights are drawn on the first Run, not here: the timing model
// never reads them, and a build at paper scale would otherwise draw
// 263 KB of them for nothing.
func NewBERTNER(nseq, seqlen, dim int, seed int64) *Spec {
	const vocab = 256
	type weights struct{ embed, wq, wk, wv, wff, wtag [][]float64 }
	draw := sync.OnceValue(func() weights {
		rng := rand.New(rand.NewSource(seed))
		sc := 1 / math.Sqrt(float64(dim))
		var w weights
		w.embed = randMat(rng, vocab, dim, 0.3)
		w.wq = randMat(rng, dim, dim, sc)
		w.wk = randMat(rng, dim, dim, sc)
		w.wv = randMat(rng, dim, dim, sc)
		w.wff = randMat(rng, dim, dim, sc)
		w.wtag = randMat(rng, dim, 2, sc)
		return w
	})
	return &Spec{
		Name:           "bert-ner",
		ThroughputBPS:  2.0e9,
		Speedup:        10.0,
		PowerW:         35,
		LaunchOverhead: 30 * sim.Microsecond,
		Run: func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			tok, err := getIn("bert-ner", in, "tokens")
			if err != nil {
				return nil, err
			}
			if tok.Dim(0) != nseq || tok.Dim(1) != seqlen {
				return nil, fmt.Errorf("accel: bert-ner: input shape %v, want [%d %d]", tok.Shape(), nseq, seqlen)
			}
			w := draw()
			embed, wq, wk, wv, wff, wtag := w.embed, w.wq, w.wk, w.wv, w.wff, w.wtag
			tags := tensor.New(tensor.Int32, nseq, seqlen)
			x := make([][]float64, seqlen)
			q := make([][]float64, seqlen)
			k := make([][]float64, seqlen)
			v := make([][]float64, seqlen)
			att := make([][]float64, seqlen)
			for s := 0; s < nseq; s++ {
				for t := 0; t < seqlen; t++ {
					id := int(tok.At(s, t)) & (vocab - 1)
					x[t] = embed[id]
				}
				for t := 0; t < seqlen; t++ {
					q[t] = matVec(wq, x[t])
					k[t] = matVec(wk, x[t])
					v[t] = matVec(wv, x[t])
				}
				scale := 1 / math.Sqrt(float64(dim))
				for t := 0; t < seqlen; t++ {
					// Softmax attention over the sequence.
					logits := make([]float64, seqlen)
					maxL := math.Inf(-1)
					for u := 0; u < seqlen; u++ {
						logits[u] = dot(q[t], k[u]) * scale
						if logits[u] > maxL {
							maxL = logits[u]
						}
					}
					var z float64
					for u := range logits {
						logits[u] = math.Exp(logits[u] - maxL)
						z += logits[u]
					}
					ctx := make([]float64, dim)
					for u := 0; u < seqlen; u++ {
						wgt := logits[u] / z
						for d := 0; d < dim; d++ {
							ctx[d] += wgt * v[u][d]
						}
					}
					att[t] = ctx
				}
				for t := 0; t < seqlen; t++ {
					h := matVec(wff, att[t])
					for d := range h {
						if h[d] < 0 {
							h[d] = 0 // ReLU
						}
					}
					score := matVec(wtag, h)
					tag := 0.0
					if score[1] > score[0] {
						tag = 1
					}
					tags.Set(tag, s, t)
				}
			}
			return map[string]*tensor.Tensor{"tags": tags}, nil
		},
	}
}

func matVec(w [][]float64, x []float64) []float64 {
	cols := len(w[0])
	out := make([]float64, cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := w[i]
		for j := 0; j < cols; j++ {
			out[j] += xi * row[j]
		}
	}
	return out
}

func dot(a, b []float64) float64 {
	var acc float64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}
