// Database Hash Join end to end: a gzip-compressed table is decompressed
// by the real DEFLATE kernel, parsed into key/amount columns plus a
// columnar payload by the ColumnPack restructuring kernel (reference
// interpreter here; see examples/soundpipeline for the DRX-machine
// variant), and probed against the join accelerator's build side. The
// example then simulates the same pipeline at paper scale under baseline
// and DMX placements.
//
//	go run ./examples/hashjoin
package main

import (
	"fmt"
	"log"

	"dmx"
	"dmx/internal/restructure"
	"dmx/internal/workload"
)

func main() {
	// Functional pass at test scale: real bytes through the whole chain.
	bench, err := workload.DatabaseHashJoin(workload.TestScale)
	if err != nil {
		log.Fatal(err)
	}
	out, err := bench.Exec()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("functional chain: %d probes, %v hits, matched amount sum %v\n",
		out["joined"].Dim(0), out["hits"].At(0), out["sum"].At(0))

	// The restructuring kernel the chain used, for reference.
	pack := bench.Pipeline.Hops[0].Kernel
	stats := pack.Stats()
	fmt.Printf("restructuring (%s): %d elems, %d ops, %d B in, %d B out\n",
		pack.Name, stats.Elems, stats.Ops, stats.BytesIn, stats.BytesOut)
	_ = restructure.ColumnPack // documented constructor for custom tables

	// Performance pass at paper scale (16 MB tables).
	paper, err := workload.DatabaseHashJoin(workload.PaperScale)
	if err != nil {
		log.Fatal(err)
	}
	for _, placement := range []dmx.Placement{dmx.MultiAxl, dmx.BumpInTheWire} {
		rep, err := dmx.Simulate(dmx.DefaultConfig(placement), paper.Pipeline)
		if err != nil {
			log.Fatal(err)
		}
		a := rep.Apps[0]
		fmt.Printf("%-18v total %-12v restructure %-12v (%.1f joins/s steady-state)\n",
			placement, a.Total, a.RestructureTime, a.Throughput())
	}
}
