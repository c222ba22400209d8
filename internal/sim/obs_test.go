package sim

import (
	"testing"

	"dmx/internal/obs"
)

// With tracing disabled (nil recorder) the instrumented channel and
// engine loops must still run allocation-free — the emission paths are
// a single nil check before any work.
func TestDisabledObsKeepsChannelAllocationFree(t *testing.T) {
	e := NewEngine() // Obs stays nil
	ch := NewChannel(e, "c", 1e9)
	ch.Start(1e3, nil)
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		ch.Start(1e3, nil)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("disabled-tracer channel round allocates %.1f per op, want 0", avg)
	}
}

func TestServerEmitsServiceSpans(t *testing.T) {
	e := NewEngine()
	e.Obs = obs.New()
	srv := NewServerDisc(e, "dev0:fft", 1, nil)
	srv.SubmitKeyed(0, 0, 3*Microsecond, nil)
	srv.SubmitKeyed(0, 0, 2*Microsecond, nil) // queues behind the first
	e.Run()
	var spans []obs.Event
	for _, ev := range e.Obs.Events() {
		if ev.Kind == obs.KindSpan && ev.Type == obs.TypeService {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("%d service spans, want 2", len(spans))
	}
	if spans[0].Track != "dev0:fft" || spans[0].Dur != obs.Duration(3*Microsecond) {
		t.Errorf("first span %+v", spans[0])
	}
	// The second job starts when the first finishes: spans must abut.
	if spans[1].TS != obs.Time(3*Microsecond) {
		t.Errorf("second span begins at %d, want %d", spans[1].TS, 3*Microsecond)
	}
}

// A multi-slot server serves jobs concurrently; its spans land on
// per-slot sub-tracks ("name/0", "name/1", …) so no single trace track
// ever holds overlapping slices.
func TestMultiSlotServerSpansUseDistinctTracks(t *testing.T) {
	e := NewEngine()
	e.Obs = obs.New()
	srv := NewServerDisc(e, "drx", 2, nil)
	srv.SubmitKeyed(0, 0, 4*Microsecond, nil)
	srv.SubmitKeyed(0, 0, 4*Microsecond, nil) // concurrent with the first
	srv.SubmitKeyed(0, 0, 1*Microsecond, nil) // queues; reuses the first freed slot
	e.Run()
	var tracks []string
	for _, ev := range e.Obs.Events() {
		if ev.Kind == obs.KindSpan && ev.Type == obs.TypeService {
			tracks = append(tracks, ev.Track)
			if ev.Name != "drx" {
				t.Errorf("span keeps the server name, got %q", ev.Name)
			}
		}
	}
	want := []string{"drx/0", "drx/1", "drx/0"}
	if len(tracks) != len(want) {
		t.Fatalf("tracks %v, want %v", tracks, want)
	}
	for i := range want {
		if tracks[i] != want[i] {
			t.Fatalf("tracks %v, want %v", tracks, want)
		}
	}
}

func TestChannelEmitsOccupancyCounters(t *testing.T) {
	e := NewEngine()
	e.Obs = obs.New()
	ch := NewChannel(e, "link.up", 1e9)
	ch.Start(1e6, nil)
	ch.Start(1e6, nil)
	e.Run()
	var samples []float64
	for _, ev := range e.Obs.Events() {
		if ev.Kind == obs.KindCounter && ev.Track == "link.up" {
			samples = append(samples, ev.Value)
		}
	}
	// 1 (first start), 2 (second start), 0 (both finish together).
	want := []float64{1, 2, 0}
	if len(samples) != len(want) {
		t.Fatalf("samples %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples %v, want %v", samples, want)
		}
	}
}

// Attaching a recorder must not change virtual timing: the recorder only
// appends, never schedules.
func TestObsDoesNotPerturbEngineTiming(t *testing.T) {
	run := func(rec *obs.Recorder) Time {
		e := NewEngine()
		e.Obs = rec
		ch := NewChannel(e, "c", 1e9)
		srv := NewServerDisc(e, "s", 1, nil)
		for i := 0; i < 8; i++ {
			ch.Start(1e5, func() { srv.SubmitKeyed(0, 0, Microsecond, nil) })
		}
		e.Run()
		return e.Now()
	}
	if quiet, traced := run(nil), run(obs.New()); quiet != traced {
		t.Fatalf("recorder changed timing: %v vs %v", quiet, traced)
	}
}
