package dmx_test

// The benchmark harness: one testing.B per table and figure of the
// paper's evaluation. Each benchmark regenerates its artifact through
// internal/experiments (the same code path as cmd/dmxbench) and attaches
// the headline series as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation and reports the measured factors
// alongside wall-clock cost. DRX program timings are memoized process-
// wide, so iterations after the first reflect simulation cost only.

import (
	"fmt"
	"testing"

	"dmx/internal/experiments"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 5 {
			b.Fatal("incomplete inventory")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		last = res.PerKernelSpeedup
	}
	b.ReportMetric(last, "perKernelSpeedup")
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	var res *experiments.Fig11Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range experiments.Concurrencies {
		b.ReportMetric(res.Average[n], fmt.Sprintf("speedup@%dapps", n))
	}
}

func BenchmarkFig12(b *testing.B) {
	var res *experiments.Fig12Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		switch {
		case row.Apps != 15:
		case row.Config == "Multi-Axl":
			b.ReportMetric(100*row.RestructShare, "baselineRestructPct@15apps")
		case row.Config == "Bump-in-the-Wire":
			b.ReportMetric(100*row.RestructShare, "dmxRestructPct@15apps")
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	var res *experiments.Fig13Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range experiments.Concurrencies {
		b.ReportMetric(res.Average[n], fmt.Sprintf("thruImprove@%dapps", n))
	}
}

func BenchmarkFig14(b *testing.B) {
	var res *experiments.Fig14Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Fig14(); err != nil {
			b.Fatal(err)
		}
	}
	for p, m := range res.Speedup {
		b.ReportMetric(m[15], p.String()+"@15apps")
	}
}

func BenchmarkFig15(b *testing.B) {
	var res *experiments.Fig15Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Fig15(); err != nil {
			b.Fatal(err)
		}
	}
	for p, m := range res.Reduction {
		b.ReportMetric(m[15], "energy:"+p.String()+"@15apps")
	}
}

func BenchmarkFig16(b *testing.B) {
	var res *experiments.Fig16Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Fig16(); err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range experiments.Concurrencies {
		b.ReportMetric(res.Speedup[n], fmt.Sprintf("nerSpeedup@%dapps", n))
	}
}

func BenchmarkFig17(b *testing.B) {
	var res *experiments.Fig17Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Fig17(); err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range experiments.CollectiveSizes {
		b.ReportMetric(res.Broadcast[n], fmt.Sprintf("broadcast@%d", n))
		b.ReportMetric(res.AllReduce[n], fmt.Sprintf("allreduce@%d", n))
	}
}

func BenchmarkFig18(b *testing.B) {
	var res *experiments.Fig18Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Fig18(); err != nil {
			b.Fatal(err)
		}
	}
	for _, lanes := range experiments.LaneSweep {
		b.ReportMetric(res.Speedup[lanes], fmt.Sprintf("speedup@%dlanes", lanes))
	}
}

func BenchmarkFig19(b *testing.B) {
	var res *experiments.Fig19Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Fig19(); err != nil {
			b.Fatal(err)
		}
	}
	for _, g := range experiments.GenSweep {
		b.ReportMetric(res.Speedup[g][15], g.String()+"@15apps")
	}
}
