package drxc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dmx/internal/drxc"
	"dmx/internal/restructure"
	"dmx/internal/sweep"
	"dmx/internal/tensor"
	"dmx/internal/workload"
)

// The workload-wide differential checker: every restructuring hop of
// every benchmark application — the five Table I pipelines plus the
// GenAI-RAG and PIR+NER chains — and every fused adjacent-hop kernel
// (what dmxsys's Plan.FusionCandidates times) must be byte- and
// Result-identical between the machine's bulk fast paths and the element
// interpreter, and Time must return that Result, at every DiffConfigs
// configuration. This file is an external test package because workload
// depends (via dmxsys) on drxc itself.

type hopCase struct {
	bench  string
	hop    int
	kernel *restructure.Kernel
}

func allWorkloadHops(t *testing.T) []hopCase {
	t.Helper()
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	if rag, err := workload.GenAIRAG(workload.TestScale); err != nil {
		t.Fatal(err)
	} else {
		benches = append(benches, rag)
	}
	if pir, err := workload.PIRWithNER(workload.TestScale); err != nil {
		t.Fatal(err)
	} else {
		benches = append(benches, pir)
	}
	var hops []hopCase
	fused := 0
	for _, b := range benches {
		ph := b.Pipeline.Hops
		for i, h := range ph {
			hops = append(hops, hopCase{bench: b.Name, hop: i, kernel: h.Kernel})
			if i+1 == len(ph) {
				continue
			}
			// Infusible pairs are skipped, as FusionCandidates skips them.
			if f, err := drxc.FusedKernel(h.Kernel, ph[i+1].Kernel); err == nil {
				hops = append(hops, hopCase{bench: b.Name + "/fused", hop: i, kernel: f})
				fused++
			}
		}
	}
	if len(hops) < 7 || fused == 0 {
		t.Fatalf("expected hops from every benchmark and some fused pairs, got %d hops (%d fused)", len(hops), fused)
	}
	return hops
}

func randHopInputs(seed int64, k *restructure.Kernel) map[string]*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	inputs := make(map[string]*tensor.Tensor)
	for _, p := range k.Inputs() {
		in := tensor.New(p.DType, p.Shape...)
		it := tensor.NewIter(p.Shape)
		for it.Next() {
			switch p.DType {
			case tensor.Complex64:
				in.SetComplex(complex(rng.Float64()*4-2, rng.Float64()*4-2), it.Index()...)
			case tensor.Uint8:
				in.Set(float64(rng.Intn(256)), it.Index()...)
			case tensor.Int8:
				in.Set(float64(rng.Intn(256)-128), it.Index()...)
			case tensor.Int16:
				in.Set(float64(rng.Intn(1<<16)-1<<15), it.Index()...)
			case tensor.Int32:
				in.Set(float64(rng.Intn(1<<20)-1<<19), it.Index()...)
			default:
				in.Set(rng.Float64()*200-100, it.Index()...)
			}
		}
		inputs[p.Name] = in
	}
	return inputs
}

func TestFastPathWorkloadHopsBitIdentical(t *testing.T) {
	hops := allWorkloadHops(t)
	for name, cfg := range drxc.DiffConfigs() {
		err := sweep.Each(len(hops), func(i int) error {
			h := hops[i]
			if err := drxc.DiffFastVsInterp(h.kernel, cfg, randHopInputs(3000+int64(i), h.kernel)); err != nil {
				return fmt.Errorf("%s: %s hop %d: %w", name, h.bench, h.hop, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
