package cluster

import (
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// A fleet's engine holds in-flight work only: Run feeds each app's
// arrivals on demand, so throughout a 10 000-request 4-host run the
// pending set stays within two events per request the router has in
// flight plus the next arrival of each app. Scheduling every arrival
// up front would put the whole remaining timeline there.
func TestFleetPendingSetIsInFlightWork(t *testing.T) {
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	var pipes []*dmxsys.Pipeline
	for _, w := range benches {
		if len(w.Pipeline.Hops) > 0 && len(pipes) < 2 {
			pipes = append(pipes, w.Pipeline)
		}
	}
	const perApp = 5000
	f, err := New(FleetConfig{
		Hosts: 4,
		Base:  dmxsys.DefaultConfig(dmxsys.BumpInTheWire),
		Net:   NetConfig{NICBytesPerSec: 12.5e9, CoreBytesPerSec: 50e9, Latency: 2 * sim.Microsecond},
	}, pipes)
	if err != nil {
		t.Fatal(err)
	}
	apps := len(pipes)
	// Sample between events every 5 µs; the sampler stops rescheduling
	// once nothing else is pending, so it cannot keep the run alive.
	peak, samples := 0, 0
	var sample func()
	sample = func() {
		p := f.eng.Pending()
		inflight := 0
		for _, n := range f.rt.outstanding {
			inflight += n
		}
		samples++
		peak = max(peak, p)
		if p > 2*inflight+apps {
			t.Errorf("at %v: %d events pending with %d requests in flight, want ≤ %d",
				f.eng.Now(), p, inflight, 2*inflight+apps)
		}
		if p > 0 {
			f.eng.Schedule(5*sim.Microsecond, sample)
		}
	}
	f.eng.Schedule(0, sample)
	if _, err := f.Run(traffic.Spec{Arrival: traffic.Poisson, Rate: 30000, Requests: perApp, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if total := apps * perApp; samples < 1000 || peak*100 > total {
		t.Fatalf("peak pending %d over %d samples, want ≤ %d (1%% of %d requests)", peak, samples, total/100, total)
	}
}
