package accel

import (
	"fmt"
	"math"
	"math/rand"

	"dmx/internal/sim"
	"dmx/internal/tensor"
)

// The paper's conclusion points at multimodal generative-AI pipelines —
// "multiple models and ... acceleration beyond neural networks (e.g.,
// vector database lookups, search)" — as the next cross-domain chains
// DMX serves. These two kernels realize that future-work pipeline: an
// embedding model and a vector-search (retrieval) accelerator, chained
// by an embedding normalize-and-quantize restructuring
// (restructure.VecNormalize).

// NewEmbedder builds the embedding-model accelerator: token sequences
// become mean-pooled dense query embeddings (seeded embedding table, the
// usual first stage of a retrieval pipeline).
//
// Input: "tokens" int32[nq, seqlen]. Output: "embeddings" float32[nq, dim].
func NewEmbedder(nq, seqlen, dim int, seed int64) *Spec {
	rng := rand.New(rand.NewSource(seed))
	const vocab = 512
	table := randMat(rng, vocab, dim, 0.5)
	return &Spec{
		Name:           "embedder",
		ThroughputBPS:  1.0e9,
		Speedup:        8.0,
		PowerW:         28,
		LaunchOverhead: 25 * sim.Microsecond,
		Run: func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			tok, err := getIn("embedder", in, "tokens")
			if err != nil {
				return nil, err
			}
			if tok.Dim(0) != nq || tok.Dim(1) != seqlen {
				return nil, fmt.Errorf("accel: embedder: input shape %v, want [%d %d]", tok.Shape(), nq, seqlen)
			}
			out := tensor.New(tensor.Float32, nq, dim)
			acc := make([]float64, dim)
			for q := 0; q < nq; q++ {
				for d := range acc {
					acc[d] = 0
				}
				for tpos := 0; tpos < seqlen; tpos++ {
					row := table[int(tok.At(q, tpos))&(vocab-1)]
					for d := 0; d < dim; d++ {
						acc[d] += row[d]
					}
				}
				for d := 0; d < dim; d++ {
					out.Set(acc[d]/float64(seqlen), q, d)
				}
			}
			return map[string]*tensor.Tensor{"embeddings": out}, nil
		},
	}
}

// NewVectorSearch builds the retrieval accelerator: each int8 query
// vector scans a seeded int8 corpus by dot product and reports the
// best-matching corpus index and its score — the vector-database lookup
// the paper's conclusion names.
//
// Inputs: "queries" int8[nq, dim]. Outputs: "ids" int32[nq],
// "scores" int32[nq].
func NewVectorSearch(nq, dim, corpus int, seed int64) *Spec {
	db := corpusVectors(corpus, dim, seed)
	return &Spec{
		Name:           "vector-search",
		ThroughputBPS:  3.0e9,
		Speedup:        11.0,
		PowerW:         24,
		LaunchOverhead: 15 * sim.Microsecond,
		Run: func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			q, err := getIn("vector-search", in, "queries")
			if err != nil {
				return nil, err
			}
			if q.Dim(0) != nq || q.Dim(1) != dim {
				return nil, fmt.Errorf("accel: vector-search: input shape %v, want [%d %d]", q.Shape(), nq, dim)
			}
			ids := tensor.New(tensor.Int32, nq)
			scores := tensor.New(tensor.Int32, nq)
			qv := make([]int32, dim)
			for i := 0; i < nq; i++ {
				for d := 0; d < dim; d++ {
					qv[d] = int32(q.At(i, d))
				}
				bestID, bestScore := 0, int32(math.MinInt32)
				for c := 0; c < corpus; c++ {
					var dot int32
					row := db[c]
					for d := 0; d < dim; d++ {
						dot += qv[d] * int32(row[d])
					}
					if dot > bestScore {
						bestID, bestScore = c, dot
					}
				}
				ids.Set(float64(bestID), i)
				scores.Set(float64(bestScore), i)
			}
			return map[string]*tensor.Tensor{"ids": ids, "scores": scores}, nil
		},
	}
}

// corpusVectors draws the seeded int8 corpus NewVectorSearch scans.
func corpusVectors(corpus, dim int, seed int64) [][]int8 {
	rng := rand.New(rand.NewSource(seed))
	db := make([][]int8, corpus)
	for c := range db {
		db[c] = make([]int8, dim)
		for d := range db[c] {
			db[c][d] = int8(rng.Intn(255) - 127)
		}
	}
	return db
}
