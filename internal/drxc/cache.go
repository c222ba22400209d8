package drxc

import (
	"sync"
	"sync/atomic"

	"dmx/internal/drx"
	"dmx/internal/restructure"
	"dmx/internal/sweep"
)

// The process-wide compiled-program cache. Compiling a restructuring
// kernel is by far the most expensive step of a functional DRX dispatch
// (lowering, schedule selection, program validation), yet the result
// depends only on the kernel's structure and the hardware configuration:
// the same kernel enqueued a thousand times compiles to the same program
// a thousand times. The cache mirrors dmxsys's DRX timing cache: a
// sync.Map keyed by (kernel fingerprint, drx.Config), safe under the
// sweep harness's parallel workers, where a duplicated
// concurrent compile stores an identical artifact so last-write-wins is
// harmless.
//
// A cached *Compiled is shared between goroutines and machines; that is
// sound because Compiled is immutable after Compile and Execute only
// reads it. Only default-Options compilations are cached — ablation
// builds (CompileWithOptions) are research probes, not hot paths.

// progCacheKey identifies one (kernel structure, hardware) compilation.
// drx.Config is a flat comparable struct, so the composite key needs no
// serialization.
type progCacheKey struct {
	fingerprint string
	cfg         drx.Config
}

var (
	progCache              sync.Map // progCacheKey → *Compiled
	cacheHits, cacheMisses atomic.Int64
)

// CompileCached returns the process-wide cached compilation of k for
// cfg, compiling (and populating the cache) on first use. Errors are not
// cached: a kernel that fails to compile fails identically on retry.
func CompileCached(k *restructure.Kernel, cfg drx.Config) (*Compiled, error) {
	key := progCacheKey{fingerprint: k.Fingerprint(), cfg: cfg}
	if v, ok := progCache.Load(key); ok {
		cacheHits.Add(1)
		return v.(*Compiled), nil
	}
	c, err := Compile(k, cfg)
	if err != nil {
		return nil, err
	}
	cacheMisses.Add(1)
	actual, _ := progCache.LoadOrStore(key, c)
	return actual.(*Compiled), nil
}

// CacheStats reports cumulative CompileCached hits and misses (process
// lifetime). Intended for benchmarks and diagnostics; the counters are
// monotone and shared, so tests should assert on deltas or on *Compiled
// pointer identity rather than absolute values.
func CacheStats() (hits, misses int64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// WarmCompiled populates the compile cache for every distinct kernel, in
// parallel on the sweep worker pool. Call it before a parallel sweep so
// workers hit a warm cache instead of duplicating compiles.
func WarmCompiled(cfg drx.Config, kernels []*restructure.Kernel) error {
	var todo []*restructure.Kernel
	seen := make(map[string]struct{})
	for _, k := range kernels {
		key := k.Fingerprint()
		if _, ok := seen[key]; ok {
			continue
		}
		if _, ok := progCache.Load(progCacheKey{fingerprint: key, cfg: cfg}); ok {
			continue
		}
		seen[key] = struct{}{}
		todo = append(todo, k)
	}
	return sweep.Each(len(todo), func(i int) error {
		_, err := CompileCached(todo[i], cfg)
		return err
	})
}
