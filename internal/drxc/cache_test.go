package drxc

import (
	"sync"
	"testing"

	"dmx/internal/drx"
	"dmx/internal/restructure"
	"dmx/internal/tensor"
)

// Cache tests assert on *Compiled pointer identity: the cache is
// process-wide and other tests in the binary populate it too.

func TestCompileCachedPointerIdentity(t *testing.T) {
	cfg := drx.DefaultConfig()
	c1, err := CompileCached(restructure.SignalNormalize(5, 40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A separately constructed, structurally identical kernel must hit
	// the same artifact — this is the EnqueueRestructure hot path, where
	// callers rebuild the kernel per dispatch.
	c2, err := CompileCached(restructure.SignalNormalize(5, 40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("repeat CompileCached of an identical kernel returned a distinct compilation")
	}
}

func TestCompileCachedKeysOnConfig(t *testing.T) {
	k := restructure.SignalNormalize(5, 48)
	c1, err := CompileCached(k, drx.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CompileCached(k, drx.DefaultConfig().WithLanes(32))
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("CompileCached ignored the hardware configuration in its key")
	}
}

// sameSigCacheKernel mirrors the fuzzer's ad-hoc kernels: fixed name and
// geometry, varying stage structure. Signature collides; the cache key
// must not.
func sameSigCacheKernel(e restructure.Expr) *restructure.Kernel {
	return &restructure.Kernel{
		Name: "cachecollide",
		Params: []restructure.Param{
			{Name: "a", DType: tensor.Float32, Shape: []int{4, 32}, Dir: restructure.In},
			{Name: "out", DType: tensor.Float32, Shape: []int{4, 32}, Dir: restructure.Out},
		},
		Stages: []restructure.Stage{&restructure.MapStage{
			Out: "out", Ins: []string{"a"},
			Accs: []restructure.Access{restructure.IdentityAccess(2)},
			Expr: e,
		}},
	}
}

func TestCompileCachedKeysOnStageStructure(t *testing.T) {
	k1 := sameSigCacheKernel(restructure.AddE(restructure.InN(0), restructure.C(1)))
	k2 := sameSigCacheKernel(restructure.MulE(restructure.InN(0), restructure.C(3)))
	if k1.Signature() != k2.Signature() {
		t.Fatal("test premise broken: signatures differ")
	}
	cfg := drx.DefaultConfig()
	c1, err := CompileCached(k1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CompileCached(k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("cache returned one compilation for same-signature kernels with different stages")
	}
}

// TestTimeMemoized pins Time's memo on the Compiled: eight goroutines
// timing one fresh Compiled at once all get the walk's Result (run it
// under -race), which equals an uncached walk of the program, and a
// later Time returns that Result without allocating.
func TestTimeMemoized(t *testing.T) {
	cfg := drx.DefaultConfig()
	c, err := Compile(restructure.SignalNormalize(5, 40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		res  [8]drx.Result
		errs [8]error
	)
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = Time(c)
		}()
	}
	wg.Wait()
	m, err := drx.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Time(c.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if errs[i] != nil || res[i] != want {
			t.Fatalf("goroutine %d: Time = %+v, %v; walk = %+v", i, res[i], errs[i], want)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if r, err := Time(c); err != nil || r != want {
			t.Fatalf("memoized Time = %+v, %v; walk = %+v", r, err, want)
		}
	})
	if allocs != 0 {
		t.Errorf("memoized Time allocates %.1f objects per call, want 0", allocs)
	}
}

func TestCompileCachedErrorNotCached(t *testing.T) {
	// A kernel that fails to compile must fail identically on retry and
	// must not poison the cache.
	bad := &restructure.Kernel{Name: "bad"}
	cfg := drx.DefaultConfig()
	if _, err := CompileCached(bad, cfg); err == nil {
		t.Fatal("empty kernel compiled")
	}
	if _, err := CompileCached(bad, cfg); err == nil {
		t.Fatal("empty kernel compiled on retry")
	}
}
