package traffic

import (
	"testing"

	"dmx/internal/obs"
	"dmx/internal/sim"
)

// retirement is one Tally.Retire call of app 0.
type retirement struct {
	r      Retired
	end    sim.Time
	budget sim.Duration
}

func TestTallyRetire(t *testing.T) {
	ms := sim.Millisecond
	at := func(d sim.Duration) sim.Time { return sim.Time(0).Add(d) }
	for _, tc := range []struct {
		name string
		in   []retirement
		// want holds the counters; lats the latency samples of
		// Latency, clean the subset in CleanLat.
		want     AppLoad
		lats     []sim.Duration
		clean    int
		achieved float64
	}{
		{"clean", []retirement{{Retired{Start: at(1 * ms)}, at(3 * ms), 0}},
			AppLoad{Requests: 1, Completed: 1}, []sim.Duration{2 * ms}, 1, 0},
		{"degraded", []retirement{{Retired{Outcome: OutcomeDegraded, Retries: 2, Start: at(1 * ms)}, at(5 * ms), 0}},
			AppLoad{Requests: 1, Completed: 1, Degraded: 1, Retries: 2}, []sim.Duration{4 * ms}, 0, 0},
		{"rejected leaves no sample", []retirement{{Retired{Outcome: OutcomeRejected}, at(1 * ms), ms}},
			AppLoad{Requests: 1, Rejected: 1}, nil, 0, 0},
		{"abandoned leaves no sample", []retirement{{Retired{Outcome: OutcomeAbandoned, Retries: 3, Timeouts: 1, Start: at(1 * ms)}, at(9 * ms), ms}},
			AppLoad{Requests: 1, Abandoned: 1, Retries: 3, Timeouts: 1}, nil, 0, 0},
		{"end at the budget is no miss", []retirement{{Retired{Start: at(1 * ms)}, at(3 * ms), 2 * ms}},
			AppLoad{Requests: 1, Completed: 1}, []sim.Duration{2 * ms}, 1, 0},
		{"end past the budget is a miss", []retirement{{Retired{Start: at(1 * ms)}, at(3*ms + 1), 2 * ms}},
			AppLoad{Requests: 1, Completed: 1, Missed: 1}, []sim.Duration{2*ms + 1}, 1, 0},
		{"no budget, no miss", []retirement{{Retired{}, at(100 * ms), 0}},
			AppLoad{Requests: 1, Completed: 1}, []sim.Duration{100 * ms}, 1, 0},
		{"two completions set the rate", []retirement{
			{Retired{}, at(4 * ms), 0},
			{Retired{Outcome: OutcomeRejected}, at(5 * ms), 0},
			{Retired{}, at(2 * ms), 0},
		}, AppLoad{Requests: 3, Completed: 2, Rejected: 1}, []sim.Duration{4 * ms, 2 * ms}, 2, 500},
		{"no completions, no rate", nil, AppLoad{}, nil, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tl := NewTally([]string{"app"})
			for _, in := range tc.in {
				tl.Retire(0, in.r, in.end, in.budget)
			}
			got := tl.Apps[0]
			want := tc.want
			want.App = "app"
			for i, d := range tc.lats {
				want.Latency.Add(obs.Duration(d))
				if i < tc.clean {
					want.CleanLat.Add(obs.Duration(d))
				} else {
					want.DegradedLat.Add(obs.Duration(d))
				}
			}
			if got != want {
				t.Errorf("row\n%+v\nwant\n%+v", got, want)
			}
			if a := tl.achieved(0); a != tc.achieved {
				t.Errorf("achieved %g req/s, want %g", a, tc.achieved)
			}
		})
	}
}

func TestSpecReport(t *testing.T) {
	spec := Spec{Arrival: Poisson, Rate: 0.1, Requests: 3, Seed: 9}
	host := NewTally([]string{"a", "b"})
	for i, end := range []sim.Duration{1, 3, 5} {
		host.Retire(0, Retired{Start: sim.Time(i)}, sim.Time(0).Add(end*sim.Second), 0)
	}
	host.Retire(1, Retired{Outcome: OutcomeDegraded}, sim.Time(0).Add(sim.Second), 0)
	host.Apps[1].Batches, host.Apps[1].BatchedRequests = 1, 2

	// One part: the report is that part's rows, with the whole offered
	// rate, exactly, and its own achieved rate.
	rep := spec.Report(7*sim.Second, host)
	if rep.Arrival != Poisson || rep.Seed != 9 || rep.Makespan != 7*sim.Second || len(rep.PerApp) != 2 {
		t.Fatalf("report header %+v", rep)
	}
	for i, got := range rep.PerApp {
		want := host.Apps[i]
		want.Offered, want.Achieved = 0.1, host.achieved(i)
		one := LoadReport{PerApp: []AppLoad{want}}
		one.Finalize()
		if got != one.PerApp[0] {
			t.Errorf("app %d: one-part report\n%+v\nwant its row\n%+v", i, got, one.PerApp[0])
		}
	}
	if a := rep.PerApp[0].Achieved; a != 0.5 {
		t.Errorf("achieved %g req/s, want 0.5 (2 completions after the first over 4 s)", a)
	}

	// A router tally holding only rejections merges in: its requests
	// take their share of the offered rate and its rejections count.
	router := NewTally([]string{"a", "b"})
	router.Retire(0, Retired{Outcome: OutcomeRejected}, 0, 0)
	rep = spec.Report(7*sim.Second, host, router)
	a := rep.PerApp[0]
	if a.Requests != 4 || a.Completed != 3 || a.Rejected != 1 || a.Achieved != 0.5 {
		t.Errorf("merged row %+v", a)
	}
	if want := spec.Rate*3/4 + spec.Rate*1/4; a.Offered != want {
		t.Errorf("offered %g, want %g", a.Offered, want)
	}
	if b := rep.PerApp[1]; b.Offered != 0.1 || b.Degraded != 1 || b.Batches != 1 || b.DegradedP99 == 0 {
		t.Errorf("untouched app's row %+v", b)
	}

	// Closed-loop runs offer no rate.
	if o := (Spec{Arrival: ClosedLoop, Requests: 3}).Report(0, host).PerApp[0].Offered; o != 0 {
		t.Errorf("closed-loop offered %g, want 0", o)
	}
}
