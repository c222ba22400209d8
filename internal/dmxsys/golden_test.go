package dmxsys_test

// The flow.go state-machine refactor must not move a single event: the
// acceptance gate is that a closed-loop train's report values and
// rendered text trace are byte-identical before and after for all five
// Table I applications under every placement. This golden test pins
// that equivalence: each (app, placement) cell's full dump — every
// rendered trace line plus the train's makespan, completion span and
// rate — is hashed, and the hashes were captured from the pre-refactor
// nested-closure implementation (then as a stream run, which a
// closed-loop RunLoad reproduces value for value). Run with -update
// only to regenerate after an *intentional* timing change.

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/obs"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the stream golden file")

const goldenRequests = 4

// streamDump renders one closed-loop train as a stable text form: the
// exact trace-line sequence followed by the report values and the
// train's first and last completion.
func streamDump(t *testing.T, b *workload.Benchmark, p dmxsys.Placement) string {
	t.Helper()
	cfg := dmxsys.DefaultConfig(p)
	var sb strings.Builder
	cfg.Obs = obs.New()
	cfg.Obs.OnEvent = func(ev *obs.Event) {
		if line, ok := obs.RenderText(ev); ok {
			fmt.Fprintf(&sb, "[%d] %s %s\n", int64(ev.TS), ev.App, line)
		}
	}
	s, err := dmxsys.New(cfg, []*dmxsys.Pipeline{b.Pipeline})
	if err != nil {
		t.Fatalf("%s/%v: %v", b.Name, p, err)
	}
	rep, err := s.RunLoad(traffic.Spec{Arrival: traffic.ClosedLoop, Requests: goldenRequests})
	if err != nil {
		t.Fatalf("%s/%v: %v", b.Name, p, err)
	}
	// A request retires at the end of its last phase-attribution span,
	// and every request walks its own track.
	retired := map[string]obs.Time{}
	for _, ev := range cfg.Obs.Events() {
		if ev.Kind == obs.KindSpan && ev.Type == obs.TypePhase {
			retired[ev.Track] = max(retired[ev.Track], ev.TS+obs.Time(ev.Dur))
		}
	}
	a := rep.PerApp[0]
	if len(retired) != a.Completed {
		t.Fatalf("%s/%v: %d request tracks for %d completions", b.Name, p, len(retired), a.Completed)
	}
	first, last := obs.Time(-1), obs.Time(0)
	for _, end := range retired {
		if first < 0 || end < first {
			first = end
		}
		last = max(last, end)
	}
	fmt.Fprintf(&sb, "placement=%v makespan=%d\n", p, int64(rep.Makespan))
	fmt.Fprintf(&sb, "app=%s requests=%d first=%d last=%d throughput=%.9g\n",
		a.App, a.Requests, int64(first), int64(last), a.Achieved)
	return sb.String()
}

func goldenKey(app string, p dmxsys.Placement) string {
	return app + "/" + strings.ReplaceAll(p.String(), " ", "-")
}

func hashDump(dump string) string {
	h := fnv.New64a()
	h.Write([]byte(dump))
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestClosedLoopGoldenAcrossAppsAndPlacements(t *testing.T) {
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	placements := []dmxsys.Placement{
		dmxsys.AllCPU, dmxsys.MultiAxl, dmxsys.Integrated,
		dmxsys.Standalone, dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire,
	}
	got := make(map[string]string)
	var keys []string
	for _, b := range benches {
		for _, p := range placements {
			key := goldenKey(b.Name, p)
			got[key] = hashDump(streamDump(t, b, p))
			keys = append(keys, key)
		}
	}

	golden := filepath.Join("testdata", "stream_golden.txt")
	if *update {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cells, run produced %d", len(want), len(got))
	}
	for _, k := range keys {
		if want[k] == "" {
			t.Errorf("%s: missing from golden file", k)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: closed-loop output changed: hash %s, golden %s", k, got[k], want[k])
		}
	}
}
