package dmxsys

import (
	"testing"

	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// The engine's pending set is in-flight work only: drive feeds each
// app's arrivals on demand, so throughout a 10 000-request Poisson run
// the pending events stay within two per request in flight plus the
// next arrival of each app. Scheduling every arrival up front would put
// the whole remaining timeline there.
func TestDrivePendingSetIsInFlightWork(t *testing.T) {
	const apps, perApp = 2, 5000
	s, err := New(DefaultConfig(BumpInTheWire), pipelines(apps))
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{Arrival: traffic.Poisson, Rate: 1000, Requests: perApp, Seed: 11}
	// Sample between events every 500 µs; the sampler stops
	// rescheduling once nothing else is pending, so it cannot keep the
	// run alive.
	peak, samples := 0, 0
	var sample func()
	sample = func() {
		inflight := 0
		for _, a := range s.apps {
			inflight += a.inflight
		}
		p := s.Eng.Pending()
		samples++
		peak = max(peak, p)
		if p > 2*inflight+apps {
			t.Errorf("at %v: %d events pending with %d requests in flight, want ≤ %d",
				s.Eng.Now(), p, inflight, 2*inflight+apps)
		}
		if p > 0 {
			s.Eng.Schedule(500*sim.Microsecond, sample)
		}
	}
	s.Eng.Schedule(0, sample)
	if err := s.drive(spec, nil); err != nil {
		t.Fatal(err)
	}
	if total := apps * perApp; samples < 1000 || peak*100 > total {
		t.Fatalf("peak pending %d over %d samples, want ≤ %d (1%% of %d requests)", peak, samples, total/100, total)
	}
}
