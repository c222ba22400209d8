package cluster_test

// The fleet golden pins multi-host output byte for byte. Each cell runs
// one traced fleet and hashes everything the run externalizes: the
// LoadReport text, the Perfetto JSON of every event, the fault counts
// and the per-(host, app) routing table. The faulted cells lean on every
// cross-host mechanism at once: the store-and-forward fabric in both
// directions, push-based fault observation into the router's drain
// window, batching, EDF, retries and deadlines. Run with -update only to
// regenerate after an intentional timing change.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite the fleet golden file")

// fleetCell is one golden configuration.
type fleetCell struct {
	name    string
	cfg     func(t *testing.T) (cluster.FleetConfig, traffic.Spec)
	faulted bool
}

// faultedFleet is five batched EDF hosts under DRX outages, transient
// faults and retries, with an 8 ms deadline. net switches the NIC+core
// fabric on; drain is the router's DrainIncidents.
func faultedFleet(net bool, drain int) func(t *testing.T) (cluster.FleetConfig, traffic.Spec) {
	return func(t *testing.T) (cluster.FleetConfig, traffic.Spec) {
		b := chainedBench(t)
		base := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
		base.BatchWindow = 150 * sim.Microsecond
		base.BatchMax = 4
		base.Sched = dmxsys.SchedEDF
		base.Faults = &faults.Plan{Seed: 29, DRXMTBF: 1500 * sim.Microsecond,
			DRXRepair: 400 * sim.Microsecond, TransientProb: 0.08}
		base.Retry = faults.DefaultRetry()
		rate := 1.5 * capOf(t, base, b.Pipeline)
		cfg := cluster.FleetConfig{
			Hosts:  5,
			Base:   base,
			Router: cluster.RouterConfig{DrainIncidents: drain, DrainWindow: 2 * sim.Millisecond},
		}
		if net {
			cfg.Net = cluster.NetConfig{NICBytesPerSec: 12.5e9, CoreBytesPerSec: 40e9,
				Latency: 3 * sim.Microsecond}
		}
		return cfg, traffic.Spec{Arrival: traffic.Poisson, Rate: rate, Requests: 96,
			Seed: 31, Deadline: 8 * sim.Millisecond}
	}
}

func fleetCells() []fleetCell {
	return []fleetCell{
		{"net-drain0", faultedFleet(true, 0), true},
		{"net-drain2", faultedFleet(true, 2), true},
		{"nonet-drain0", faultedFleet(false, 0), true},
		{"nonet-drain2", faultedFleet(false, 2), true},
		{"zero-net-3-hosts", func(t *testing.T) (cluster.FleetConfig, traffic.Spec) {
			return cluster.FleetConfig{Hosts: 3, Base: dmxsys.DefaultConfig(dmxsys.BumpInTheWire)},
				traffic.Spec{Arrival: traffic.Poisson, Rate: 5000, Requests: 48, Seed: 11}
		}, false},
	}
}

// fleetDigest runs one cell traced and hashes its outcome.
func fleetDigest(t *testing.T, cell fleetCell) string {
	t.Helper()
	cfg, spec := cell.cfg(t)
	cfg.Base.Obs = obs.New()
	f, rep := fleetRun(t, cfg, spec, chainedBench(t).Pipeline)
	counts := f.FaultCounts()
	if cell.faulted && counts == (faults.Counts{}) {
		t.Fatal("the fault plan injected nothing; the drain and retry paths are untested")
	}
	var trace bytes.Buffer
	if err := obs.WriteTrace(&trace, cfg.Base.Obs.Events()); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%+v\n%v\n", rep.String(), trace.Bytes(), counts, f.Routed())
	return hex.EncodeToString(h.Sum(nil))
}

func TestFleetGolden(t *testing.T) {
	golden := filepath.Join("testdata", "fleet_golden.txt")
	want := make(map[string]string)
	if data, err := os.ReadFile(golden); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if fields := strings.Fields(line); len(fields) == 2 {
				want[fields[0]] = fields[1]
			}
		}
	} else if !*update {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var sb strings.Builder
	cells := fleetCells()
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			got := fleetDigest(t, cell)
			fmt.Fprintf(&sb, "%s %s\n", cell.name, got)
			if !*update && got != want[cell.name] {
				t.Errorf("fleet output changed: hash %s, golden %q", got, want[cell.name])
			}
		})
	}
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(want) != len(cells) {
		t.Errorf("golden file has %d cells, the test runs %d", len(want), len(cells))
	}
}
