package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadCells are the load-mode command lines CI drives dmxsim with, plus
// a closed-loop -stats run and the -spec document CI round-trips with a
// flag override. Each cell also writes a Perfetto trace.
var loadCells = []struct {
	name string
	args []string
}{
	{"poisson", []string{"-app", "sound-detection", "-placement", "bump",
		"-arrival", "poisson", "-rate", "400", "-requests", "32", "-seed", "7"}},
	{"batched-edf-slo-admit", []string{"-app", "sound-detection", "-placement", "bump",
		"-arrival", "poisson", "-rate", "40000", "-requests", "48", "-seed", "7",
		"-discipline", "edf", "-batch-window", "200us", "-batch-max", "8", "-admit", "32", "-slo", "5ms"}},
	{"faulted", []string{"-app", "sound-detection", "-placement", "bump",
		"-arrival", "poisson", "-rate", "2000", "-requests", "48", "-seed", "7",
		"-faults", "drx=2ms/500us,transient=0.02,link=5ms/200us/0.25,stall=5ms/200us", "-fault-seed", "42"}},
	{"batched-faulted", []string{"-app", "sound-detection", "-placement", "bump",
		"-arrival", "poisson", "-rate", "40000", "-requests", "48", "-seed", "7",
		"-batch-window", "200us", "-batch-max", "8",
		"-faults", "drx=2ms/500us,transient=0.02,link=5ms/200us/0.25,stall=5ms/200us", "-fault-seed", "42"}},
	// The Fig. 10 text log on stdout, rendered from the same event
	// stream the Perfetto recorder writes to -trace-out.
	{"batched-faulted-trace", []string{"-app", "sound-detection", "-placement", "bump",
		"-arrival", "poisson", "-rate", "40000", "-requests", "48", "-seed", "7",
		"-batch-window", "200us", "-batch-max", "8",
		"-faults", "drx=2ms/500us,transient=0.02,link=5ms/200us/0.25,stall=5ms/200us", "-fault-seed", "42",
		"-trace"}},
	{"fleet-3host-net", []string{"-app", "sound-detection", "-placement", "bump",
		"-hosts", "3", "-router", "score", "-arrival", "poisson", "-rate", "120000", "-requests", "96", "-seed", "7",
		"-net-core", "50e9", "-net-nic", "12.5e9", "-net-lat", "2us"}},
	{"closed-stats", []string{"-app", "sound-detection", "-placement", "bump",
		"-arrival", "closed", "-requests", "8", "-stats"}},
	{"spec-rate-override", []string{"-spec", "my.json", "-rate", "60000"}},
}

// specDoc is the custom document CI tunes and replays through dmxsim.
const specDoc = `{
  "apps": ["pir-ner"],
  "scale": "test",
  "arrival": "poisson",
  "rate": 120000,
  "requests": 24,
  "seed": 3,
  "slo": "200us"
}
`

func fnv64(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Every load-mode cell's stdout and Perfetto bytes are pinned by hash
// in testdata/load_golden.txt. The trace file's path is masked in the
// stdout before hashing. Regenerate with -update only for an
// intentional change to what a run prints or traces.
func TestLoadOutputIsGolden(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "my.json"), []byte(specDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, c := range loadCells {
		tracePath := filepath.Join(dir, c.name+".json")
		args := append([]string(nil), c.args...)
		for i, a := range args {
			if a == "my.json" {
				args[i] = filepath.Join(dir, a)
			}
		}
		o, err := parseArgs(append(args, "-trace-out", tracePath))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var out bytes.Buffer
		if err := run(o, &out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		trace, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		stdout := bytes.ReplaceAll(out.Bytes(), []byte(tracePath), []byte("TRACE"))
		fmt.Fprintf(&got, "%s %s %s\n", c.name, fnv64(stdout), fnv64(trace))
	}

	golden := filepath.Join("testdata", "load_golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got.String() != string(want) {
		t.Errorf("load-mode output differs from %s (cell stdout-hash trace-hash):\ngot:\n%swant:\n%s",
			golden, got.String(), want)
	}
}
