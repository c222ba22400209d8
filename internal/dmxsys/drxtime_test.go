package dmxsys

import (
	"runtime"
	"testing"

	"dmx/internal/drx"
	"dmx/internal/drxc"
	"dmx/internal/restructure"
)

// TestDRXTimeForAllocsIndependentOfTensorSize pins what timing a kernel
// costs in memory: a DRX timing walks the compiled program rather than
// executing it over materialized inputs, so its allocations — objects
// and bytes — must not grow with the kernel's tensors. drxc.Time walks
// a program once and then answers from its memo, so this measures the
// walk itself, on a fresh machine per call. Each pair is one kernel
// family at a tiny and at a multi-megabyte geometry.
func TestDRXTimeForAllocsIndependentOfTensorSize(t *testing.T) {
	dcfg := DefaultConfig(BumpInTheWire).DRX
	pairs := [][2]*restructure.Kernel{
		{restructure.RecordFrame(16, 1000), restructure.RecordFrame(4096, 1000)},
		{restructure.VideoPreprocess(256), restructure.VideoPreprocess(1 << 20)},
		{restructure.MelSpectrogram(12, 64, 16), restructure.MelSpectrogram(2048, 512, 40)},
	}
	// What one call may allocate at any geometry: a machine, its 64 KB
	// scratchpad, and the program's metadata. Every large kernel below
	// has megabytes of input.
	const ceiling = 256 << 10
	measure := func(k *restructure.Kernel) (objects float64, bytes uint64) {
		c, err := drxc.CompileCached(k, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		time := func() {
			m, err := drx.New(dcfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Time(c.Prog); err != nil {
				t.Fatal(err)
			}
		}
		objects = testing.AllocsPerRun(5, time)
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			time()
		}
		runtime.ReadMemStats(&after)
		return objects, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for _, p := range pairs {
		small, large := p[0], p[1]
		so, sb := measure(small)
		lo, lb := measure(large)
		if lo > so+4 || lb > sb+32<<10 || lb > ceiling {
			t.Errorf("%s: timing allocates %.0f objects / %d B at the large geometry, against %.0f / %d B at the small one",
				large.Name, lo, lb, so, sb)
		}
	}
}
