package drxc

import (
	"sync"

	"dmx/internal/drx"
	"dmx/internal/restructure"
)

// The process-wide compiled-program cache. Compiling a restructuring
// kernel is by far the most expensive step of a functional DRX dispatch
// (lowering, schedule selection, program validation), yet the result
// depends only on the kernel's structure and the hardware configuration:
// the same kernel enqueued a thousand times compiles to the same program
// a thousand times. The cache is a sync.Map keyed by (kernel
// fingerprint, drx.Config), safe under the sweep harness's parallel
// workers, where a duplicated concurrent compile stores an identical
// artifact so last-write-wins is harmless.
//
// It is also the only place a DRX timing is cached: Time memoizes its
// walk on the *Compiled, so a kernel compiled through this cache is
// timed once per (fingerprint, configuration) for the process.
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

var progCache sync.Map // progCacheKey → *Compiled

// CompileCached returns the process-wide cached compilation of k for
// cfg, compiling (and populating the cache) on first use. Errors are not
// cached: a kernel that fails to compile fails identically on retry.
func CompileCached(k *restructure.Kernel, cfg drx.Config) (*Compiled, error) {
	key := progCacheKey{fingerprint: k.Fingerprint(), cfg: cfg}
	if v, ok := progCache.Load(key); ok {
		return v.(*Compiled), nil
	}
	c, err := Compile(k, cfg)
	if err != nil {
		return nil, err
	}
	actual, _ := progCache.LoadOrStore(key, c)
	return actual.(*Compiled), nil
}
