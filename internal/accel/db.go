package accel

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"

	"dmx/internal/sim"
	"dmx/internal/tensor"
)

// NewGzipDecompress builds the table-decompression accelerator of
// Database Hash Join, a real DEFLATE decoder via the standard library
// (the paper uses the Vitis GZip kernel). The decompressed size is fixed
// by the pipeline's static shapes.
//
// Input: "gz" uint8[m]. Output: "rows" uint8[outBytes].
func NewGzipDecompress(outBytes int) *Spec {
	return &Spec{
		Name:           "gzip",
		ThroughputBPS:  2.0e9,
		Speedup:        6.0,
		PowerW:         16,
		LaunchOverhead: 10 * sim.Microsecond,
		Run: func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			gz, err := getIn("gzip", in, "gz")
			if err != nil {
				return nil, err
			}
			zr, err := gzip.NewReader(bytes.NewReader(gz.Contiguous().Bytes()))
			if err != nil {
				return nil, fmt.Errorf("accel: gzip: %w", err)
			}
			defer zr.Close()
			plain, err := io.ReadAll(zr)
			if err != nil {
				return nil, fmt.Errorf("accel: gzip: %w", err)
			}
			if len(plain) != outBytes {
				return nil, fmt.Errorf("accel: gzip: decompressed %d bytes, pipeline expects %d", len(plain), outBytes)
			}
			return map[string]*tensor.Tensor{"rows": tensor.FromBytes(plain, outBytes)}, nil
		},
	}
}

// NewHashJoin builds the join accelerator: an inner (build-side) table
// of innerRows seeded random keys with int32 values is built once; each
// probe key that hits emits its matched value, misses emit -1, and the
// amounts of matching rows aggregate into a running sum (the GROUP-BY
// style reduction a join pipeline feeds).
//
// Inputs: "keys" int32[n], "amounts" int32[n], "paycol" uint8[payBytes, n].
// Outputs: "joined" int32[n] (matched inner value or -1), "hits" int32[1],
// "sum" int64[1] (aggregate of matching rows' amounts).
func NewHashJoin(n, payBytes, innerRows int, keySpace int32, seed int64) *Spec {
	rng := rand.New(rand.NewSource(seed))
	inner := make(map[int32]int32, innerRows)
	for len(inner) < innerRows {
		inner[rng.Int31n(keySpace)] = rng.Int31()
	}
	return &Spec{
		Name:           "hash-join",
		ThroughputBPS:  2.5e9,
		Speedup:        7.0,
		PowerW:         20,
		LaunchOverhead: 12 * sim.Microsecond,
		Run: func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			keys, err := getIn("hash-join", in, "keys")
			if err != nil {
				return nil, err
			}
			if keys.Dim(0) != n {
				return nil, fmt.Errorf("accel: hash-join: %d probe keys, want %d", keys.Dim(0), n)
			}
			amounts, err := getIn("hash-join", in, "amounts")
			if err != nil {
				return nil, err
			}
			if amounts.Dim(0) != n {
				return nil, fmt.Errorf("accel: hash-join: %d amounts, want %d", amounts.Dim(0), n)
			}
			pay, err := getIn("hash-join", in, "paycol")
			if err != nil {
				return nil, err
			}
			if pay.Dim(0) != payBytes || pay.Dim(1) != n {
				return nil, fmt.Errorf("accel: hash-join: payload shape %v, want [%d %d]", pay.Shape(), payBytes, n)
			}
			joined := tensor.New(tensor.Int32, n)
			hits := tensor.New(tensor.Int32, 1)
			sum := tensor.New(tensor.Int64, 1)
			var count int32
			var total int64
			for i := 0; i < n; i++ {
				k := int32(keys.At(i))
				if v, ok := inner[k]; ok {
					joined.Set(float64(v), i)
					total += int64(amounts.At(i))
					count++
				} else {
					joined.Set(-1, i)
				}
			}
			hits.Set(float64(count), 0)
			sum.Set(float64(total), 0)
			return map[string]*tensor.Tensor{"joined": joined, "hits": hits, "sum": sum}, nil
		},
	}
}

// InnerTable exposes the build side for test oracles: it regenerates the
// same seeded table NewHashJoin builds.
func InnerTable(innerRows int, keySpace int32, seed int64) map[int32]int32 {
	rng := rand.New(rand.NewSource(seed))
	inner := make(map[int32]int32, innerRows)
	for len(inner) < innerRows {
		inner[rng.Int31n(keySpace)] = rng.Int31()
	}
	return inner
}
