package workload

import (
	"fmt"
	"testing"

	"dmx/internal/drx"
	"dmx/internal/drxc"
	"dmx/internal/restructure"
	"dmx/internal/sweep"
)

// TestPaperScaleTimeMatchesFullWalk is the differential under the
// closed-form loops of drx.Machine.Time at the sizes that reach them:
// test-scale kernels loop too few times to collapse much. Every hop of
// the Table I suite, GenAI-RAG and PIR+NER at paper scale (and, as they
// cost little, at test scale), plus every fusible adjacent pair, is
// timed at the Fig. 18 lane counts, an 8 KiB
// scratchpad and the FPGA prototype's configuration. drxc.Time, which
// collapses loops, and a full walk on a machine with its fast paths off
// must return equal Results or fail together.
func TestPaperScaleTimeMatchesFullWalk(t *testing.T) {
	var benches []*Benchmark
	for _, sc := range []Scale{TestScale, PaperScale} {
		suite, err := Suite(sc)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, suite...)
		for _, build := range []func(Scale) (*Benchmark, error){GenAIRAG, PIRWithNER} {
			b, err := build(sc)
			if err != nil {
				t.Fatal(err)
			}
			benches = append(benches, b)
		}
	}
	var kernels []*restructure.Kernel
	fused := 0
	for _, b := range benches {
		hops := b.Pipeline.Hops
		for i, h := range hops {
			kernels = append(kernels, h.Kernel)
			if i+1 == len(hops) {
				continue
			}
			// Infusible pairs are skipped, as Plan.FusionCandidates skips them.
			if f, err := drxc.FusedKernel(h.Kernel, hops[i+1].Kernel); err == nil {
				kernels = append(kernels, f)
				fused++
			}
		}
	}
	if len(kernels) < 7 || fused == 0 {
		t.Fatalf("%d kernels (%d fused), want hops from every benchmark and some fused pairs", len(kernels), fused)
	}
	def := drx.DefaultConfig()
	small := def.WithLanes(32)
	small.ScratchBytes = 8 << 10
	configs := []struct {
		name string
		cfg  drx.Config
	}{
		{"lanes32", def.WithLanes(32)},
		{"lanes64", def.WithLanes(64)},
		{"lanes128", def},
		{"lanes256", def.WithLanes(256)},
		{"scratch8k_l32", small},
		{"fpga", drx.FPGAConfig()},
	}
	for _, c := range configs {
		err := sweep.Each(len(kernels), func(i int) error {
			k := kernels[i]
			comp, err := drxc.CompileCached(k, c.cfg)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", c.name, k.Name, err)
			}
			got, gotErr := drxc.Time(comp)
			m, err := drx.New(c.cfg)
			if err != nil {
				return err
			}
			m.SetFastPath(false)
			want, wantErr := m.Time(comp.Prog)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				return fmt.Errorf("%s: %s: closed form %v, full walk %v", c.name, k.Name, gotErr, wantErr)
			case got != want:
				return fmt.Errorf("%s: %s: closed form %+v, full walk %+v", c.name, k.Name, got, want)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	t.Logf("%d kernels (%d fused) × %d configurations", len(kernels), fused, len(configs))
}
