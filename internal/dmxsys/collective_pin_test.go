package dmxsys

import (
	"testing"

	"dmx/internal/sim"
)

// TestCollectiveDurationsPinned pins the exact Fig. 17 latencies of
// Broadcast and AllReduce (8 MiB per endpoint, reduction on) for the
// baseline and DMX. With eight slots per switch, 9 and 33 accelerators
// leave a lone-member switch group, whose relay has nothing to gather
// or re-broadcast. Any change to the order or the timing of the
// collectives' scheduled steps moves these numbers.
func TestCollectiveDurationsPinned(t *testing.T) {
	pins := []struct {
		n                    int
		useDMX               bool
		broadcast, allReduce sim.Duration
	}{
		{2, false, 2955700672, 14712079744},
		{2, true, 674450101, 2352361202},
		{4, false, 6191021610, 26480786688},
		{4, true, 2005130304, 5687173608},
		{8, false, 12661663486, 50018200576},
		{8, true, 4666490710, 12356798420},
		{9, false, 14279323955, 54571873845},
		{9, true, 5331830811, 14697939623},
		{16, false, 25602947238, 86447586728},
		{16, true, 9978195807, 20012114720},
		{33, false, 53103175211, 163860032301},
		{33, true, 11981097858, 25686555177},
	}
	for _, p := range pins {
		build := func(reduce bool) *CollectiveSystem {
			cs, err := NewCollective(CollectiveConfig{
				Accels: p.n,
				Bytes:  8 << 20,
				Reduce: reduce,
				UseDMX: p.useDMX,
				Sys:    DefaultConfig(BumpInTheWire),
			})
			if err != nil {
				t.Fatal(err)
			}
			return cs
		}
		b, err := build(false).Broadcast()
		if err != nil {
			t.Fatal(err)
		}
		a, err := build(true).AllReduce()
		if err != nil {
			t.Fatal(err)
		}
		if b != p.broadcast || a != p.allReduce {
			t.Errorf("n=%d dmx=%v: broadcast %d all-reduce %d, pinned %d and %d",
				p.n, p.useDMX, int64(b), int64(a), int64(p.broadcast), int64(p.allReduce))
		}
	}
}
