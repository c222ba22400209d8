package dmxsys

import (
	"runtime"
	"testing"

	"dmx/internal/restructure"
)

// TestDRXTimeForAllocsIndependentOfTensorSize pins what timing a kernel
// costs in memory: drxTimeFor walks the compiled program rather than
// executing it over materialized inputs, so its allocations — objects
// and bytes — must not grow with the kernel's tensors. Each pair is one
// kernel family at a tiny and at a multi-megabyte geometry.
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
		time := func() {
			if _, err := drxTimeFor(dcfg, k); err != nil {
				t.Fatal(err)
			}
		}
		time() // compile through the program cache
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
			t.Errorf("%s: timing allocates %.0f objects / %d B at %d input bytes, against %.0f / %d B at %d",
				large.Name, lo, lb, large.InputBytes(), so, sb, small.InputBytes())
		}
	}
}
