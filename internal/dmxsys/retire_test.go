package dmxsys

import (
	"fmt"
	"testing"

	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// retireCheck drives a System through Admit with one retired callback
// per request and checks the request pool's lifetime rule from inside
// every callback: the retiring request's record is not back in the pool
// while its callback runs, and no record sits in the pool twice. A
// recorder is attached so that every admitted request's record carries
// a track of its own, which is how a pooled record is told apart.
type retireCheck struct {
	t     *testing.T
	s     *System
	tally *traffic.Tally
	// calls counts each request's retired calls; track is its record's
	// trace track ("" for a reject, which builds no record).
	calls []int
	track []string
}

func newRetireCheck(t *testing.T, cfg Config, apps int) *retireCheck {
	t.Helper()
	cfg.Obs = obs.New()
	pipes := make([]*Pipeline, apps)
	names := make([]string, apps)
	for i := range pipes {
		names[i] = fmt.Sprintf("app%d", i)
		pipes[i] = testPipeline(names[i])
	}
	s, err := New(cfg, pipes)
	if err != nil {
		t.Fatal(err)
	}
	return &retireCheck{t: t, s: s, tally: traffic.NewTally(names)}
}

// admit admits one request of app now; then, when set, runs after the
// request's retirement is tallied, from inside its retired callback.
func (rc *retireCheck) admit(app int, deadline sim.Duration, then func(traffic.Retired)) {
	id := len(rc.calls)
	rc.calls = append(rc.calls, 0)
	rc.track = append(rc.track, "")
	a := rc.s.apps[app]
	ordinal := a.requests
	rc.s.Admit(app, deadline, func(r traffic.Retired) {
		rc.calls[id]++
		rc.checkPool(rc.track[id])
		rc.tally.Retire(app, r, rc.s.Eng.Now(), deadline)
		if then != nil {
			then(r)
		}
	})
	if a.requests > ordinal {
		rc.track[id] = a.track
		if ordinal > 0 {
			rc.track[id] = fmt.Sprintf("%s/r%d", a.track, ordinal)
		}
	}
}

// checkPool fails when a record is pooled twice or, unless track is
// empty, when the record on track is pooled.
func (rc *retireCheck) checkPool(track string) {
	rc.t.Helper()
	seen := make(map[*request]bool, len(rc.s.requestPool))
	for _, r := range rc.s.requestPool {
		if seen[r] {
			rc.t.Fatalf("a record is in the pool twice (track %s)", r.track)
		}
		seen[r] = true
		if track != "" && r.track == track {
			rc.t.Fatalf("the record on track %s was pooled before its retired callback returned", track)
		}
	}
}

// finish drains the engine and checks that every request retired
// exactly once and that each app's totals close: the tally's outcomes
// sum to its requests, and the System's own per-app counters agree with
// it. It returns the summed tally row for coverage checks.
func (rc *retireCheck) finish() traffic.AppLoad {
	rc.t.Helper()
	rc.s.Eng.Run()
	if err := rc.s.Err(); err != nil {
		rc.t.Fatal(err)
	}
	for id, n := range rc.calls {
		if n != 1 {
			rc.t.Errorf("request %d (track %q) retired %d times", id, rc.track[id], n)
		}
	}
	rc.checkPool("")
	var sum traffic.AppLoad
	for i, a := range rc.s.apps {
		al := rc.tally.Apps[i]
		if al.Completed+al.Abandoned+al.Rejected != al.Requests {
			rc.t.Errorf("app %d: %d completed + %d abandoned + %d rejected != %d requests",
				i, al.Completed, al.Abandoned, al.Rejected, al.Requests)
		}
		if a.inflight != 0 || a.requests != al.Requests-al.Rejected {
			rc.t.Errorf("app %d: %d in flight, %d executed; tally has %d requests, %d rejected",
				i, a.inflight, a.requests, al.Requests, al.Rejected)
		}
		if a.rep.Degraded != al.Degraded || a.rep.Abandoned != al.Abandoned ||
			a.rep.Retries != al.Retries || a.rep.Timeouts != al.Timeouts {
			rc.t.Errorf("app %d: system counts degraded %d abandoned %d retries %d timeouts %d, tally %d %d %d %d",
				i, a.rep.Degraded, a.rep.Abandoned, a.rep.Retries, a.rep.Timeouts,
				al.Degraded, al.Abandoned, al.Retries, al.Timeouts)
		}
		sum.Requests += al.Requests
		sum.Completed += al.Completed
		sum.Degraded += al.Degraded
		sum.Abandoned += al.Abandoned
		sum.Rejected += al.Rejected
		sum.Retries += al.Retries
		sum.Timeouts += al.Timeouts
	}
	if len(rc.calls) != sum.Requests {
		rc.t.Errorf("%d requests admitted, %d tallied", len(rc.calls), sum.Requests)
	}
	return sum
}

// retireConfig turns on every path a request can retire through: DRX
// outages and transients, link and stall incidents, retries with a
// stage watchdog, EDF batching and an admission limit.
func retireConfig() Config {
	cfg := DefaultConfig(BumpInTheWire)
	cfg.Faults = &faults.Plan{
		Seed:              5,
		DRXMTBF:           10 * sim.Millisecond,
		DRXRepair:         2 * sim.Millisecond,
		TransientProb:     0.1,
		LinkMTBF:          20 * sim.Millisecond,
		LinkRepair:        sim.Millisecond,
		LinkDegradeFactor: 0.25,
		StallMTBF:         10 * sim.Millisecond,
		StallRepair:       4 * sim.Millisecond,
	}
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 2, Backoff: 10 * sim.Microsecond, StageDeadline: 2 * sim.Millisecond}
	cfg.Sched = SchedEDF
	cfg.BatchWindow = 200 * sim.Microsecond
	cfg.BatchMax = 2
	cfg.AdmitLimit = 4
	return cfg
}

// TestRetireExactlyOnce checks, for an open-loop and a closed-loop
// run, that every request's retired callback fires exactly once, that
// a record returns to the pool only after its callback returned (the
// closed loop admits again from inside the callback, at the same
// instant), and that the per-app totals close.
func TestRetireExactlyOnce(t *testing.T) {
	const apps, perApp = 2, 150
	const deadline = 5 * sim.Millisecond
	var total traffic.AppLoad
	add := func(al traffic.AppLoad) {
		total.Completed += al.Completed
		total.Degraded += al.Degraded
		total.Abandoned += al.Abandoned
		total.Rejected += al.Rejected
		total.Retries += al.Retries
		total.Timeouts += al.Timeouts
	}
	t.Run("open", func(t *testing.T) {
		rc := newRetireCheck(t, retireConfig(), apps)
		for j := 0; j < perApp; j++ {
			for i := 0; i < apps; i++ {
				i := i
				rc.s.Eng.At(sim.Time(j)*sim.Time(500*sim.Microsecond), func() { rc.admit(i, deadline, nil) })
			}
		}
		add(rc.finish())
	})
	t.Run("closed", func(t *testing.T) {
		cfg := retireConfig()
		rc := newRetireCheck(t, cfg, apps)
		for i := 0; i < apps; i++ {
			i, left := i, perApp
			var next func(traffic.Retired)
			next = func(r traffic.Retired) {
				// A reject shrinks the loop, so the train cannot spin
				// on rejects at one instant.
				if r.Outcome != traffic.OutcomeRejected && left > 0 {
					left--
					rc.admit(i, deadline, next)
				}
			}
			// Two more than the limit: the first train's surplus is
			// rejected, then the loop runs at the limit.
			for k := 0; k < cfg.AdmitLimit+2; k++ {
				left--
				rc.admit(i, deadline, next)
			}
		}
		add(rc.finish())
	})
	t.Logf("completed %d (degraded %d), abandoned %d, rejected %d, retries %d, timeouts %d",
		total.Completed, total.Degraded, total.Abandoned, total.Rejected, total.Retries, total.Timeouts)
	if total.Degraded == 0 || total.Abandoned == 0 || total.Rejected == 0 || total.Retries == 0 || total.Timeouts == 0 {
		t.Error("the runs did not reach every retirement path")
	}
}
