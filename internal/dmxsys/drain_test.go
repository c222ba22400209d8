package dmxsys

import (
	"fmt"
	"strings"
	"testing"

	"dmx/internal/faults"
	"dmx/internal/sim"
)

// A carrier whose in-flight completion is dropped never retires, and the
// drain error must name it — app, stage cursor, phase, member count and
// track — not merely count the stranded requests. Bumping a live carrier's epoch
// while its input DMA is in flight reproduces the dropped-completion
// hang of a mis-recycled shell: the retry policy makes guard live, so
// the transfer's completion is discarded as stale.
func TestDrainErrorNamesStrandedCarrier(t *testing.T) {
	cfg := DefaultConfig(BumpInTheWire)
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 3, Backoff: 10 * sim.Microsecond}
	s, err := New(cfg, pipelines(2))
	if err != nil {
		t.Fatal(err)
	}
	var victim *carrier
	s.Eng.Schedule(sim.Microsecond, func() {
		for _, c := range s.carriers {
			if c.live {
				victim = c
				break
			}
		}
		if victim == nil {
			t.Fatal("no live carrier 1us into the run")
		}
		victim.epoch++
	})
	_, err = s.Run()
	if err == nil {
		t.Fatal("a carrier with a dropped completion drained without error")
	}
	want := fmt.Sprintf("dmxsys: 1 requests never completed (deadlocked flow): app %s stage %d phase %v members %d track %s",
		victim.a.pipe.Name, victim.k, victim.phase, len(victim.members), victim.track)
	if err.Error() != want {
		t.Fatalf("drain error:\n  %v\nwant:\n  %s", err, want)
	}
	if !strings.Contains(want, "stage 0 phase input-dma members 1 track app") {
		t.Errorf("victim %q is not the first app's request mid input DMA", want)
	}
}
