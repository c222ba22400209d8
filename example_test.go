package dmx_test

import (
	"fmt"

	"dmx"
)

// ExampleNewChain shows the builder's error accumulation: every mistake
// in the chain description comes back from Build in one joined error,
// so a misassembled pipeline is fixed in a single round trip instead of
// one error at a time.
func ExampleNewChain() {
	_, err := dmx.NewChain("broken").
		Motion(nil, 1024, 2048). // no Kernel yet — hop has no producer
		Kernel(nil, 1024).
		Motion(nil, 2048, 4096). // chain left dangling on a Motion
		Build()
	fmt.Println(err)
	// Output:
	// dmx: chain "broken": Motion without a preceding Kernel
	// dmx: chain "broken" ends in a Motion; add the consuming Kernel
}

// ExampleSimulateLoad drives one benchmark pipeline under Poisson load
// with seeded fault injection: DRX outages degrade hops to CPU-mediated
// restructuring instead of failing them, and the same seed always
// reproduces the same report.
func ExampleSimulateLoad() {
	suite, err := dmx.TestSuite()
	if err != nil {
		panic(err)
	}
	cfg := dmx.DefaultConfig(dmx.BumpInTheWire)
	cfg.Faults, err = dmx.ParseFaultPlan("drx=1ms/2ms")
	if err != nil {
		panic(err)
	}
	cfg.Retry = dmx.DefaultRetry()
	rep, err := dmx.SimulateLoad(cfg, dmx.TrafficSpec{
		Arrival:  dmx.Poisson,
		Rate:     4000,
		Requests: 40,
		Seed:     7,
	}, suite[0].Pipeline)
	if err != nil {
		panic(err)
	}
	al := rep.PerApp[0]
	fmt.Printf("issued %d, completed %d\n", al.Requests, al.Completed)
	fmt.Printf("some completions degraded to CPU restructuring: %v\n", al.Degraded > 0)
	fmt.Printf("outages alone never lose a request: %v\n", al.Abandoned == 0)
	// Output:
	// issued 40, completed 40
	// some completions degraded to CPU restructuring: true
	// outages alone never lose a request: true
}

// ExampleSimulateLoad_continuousBatching turns on the serving layer's continuous
// batching and SLO-aware scheduling: arrivals of one application within
// the batch window coalesce and walk the pipeline as a single unit (one
// kernel launch and one DMA descriptor per leg instead of one per
// request), contended stations order their backlogs
// earliest-deadline-first, and an admission limit bounds each app's
// outstanding requests. Completions still split out per request, so
// latency and deadline accounting stay per-request.
func ExampleSimulateLoad_continuousBatching() {
	suite, err := dmx.TestSuite()
	if err != nil {
		panic(err)
	}
	cfg := dmx.DefaultConfig(dmx.BumpInTheWire)
	cfg.BatchWindow = 200 * dmx.Microsecond
	cfg.BatchMax = 8
	cfg.Sched = dmx.SchedEDF
	cfg.AdmitLimit = 64
	rep, err := dmx.SimulateLoad(cfg, dmx.TrafficSpec{
		Arrival:  dmx.OpenLoop,
		Rate:     50000,
		Requests: 32,
		Deadline: 80 * dmx.Millisecond,
	}, suite[0].Pipeline)
	if err != nil {
		panic(err)
	}
	al := rep.PerApp[0]
	fmt.Printf("completed %d of %d\n", al.Completed, al.Requests)
	fmt.Printf("batches %d carrying %d requests\n", al.Batches, al.BatchedRequests)
	fmt.Printf("rejected %d\n", al.Rejected)
	// Output:
	// completed 32 of 32
	// batches 4 carrying 32 requests
	// rejected 0
}

// ExampleTune autotunes a two-app serving mix: the search seeds from
// the analytic capacity model, refines placement, scheduling,
// admission, batching, and hop fusion by coordinate descent, and
// returns the winner as a replayable Spec — simulating that document
// reproduces the tuned numbers exactly.
func ExampleTune() {
	res, err := dmx.Tune(dmx.TuneSpec{
		Base: dmx.Spec{
			Apps:     []string{"personal-info-redaction", "sound-detection"},
			Scale:    "test",
			Arrival:  "poisson",
			Rate:     150000,
			Requests: 32,
			Seed:     11,
			SLO:      "100us",
		},
		Placements: []string{"multiaxl", "integrated", "bump"},
		MaxRounds:  2,
	})
	if err != nil {
		panic(err)
	}
	w := res.Winner
	fmt.Printf("tuned: placement=%s discipline=%s admit=%d\n", w.Placement, w.Discipline, w.Admit)

	// Replaying the winner document reproduces the tuner's score.
	rep, err := w.Simulate()
	if err != nil {
		panic(err)
	}
	completed, missed := 0, 0
	for _, a := range rep.PerApp {
		completed += a.Completed
		missed += a.Missed
	}
	goodput := float64(completed-missed) / rep.Makespan.Seconds()
	fmt.Printf("replay matches the tuned goodput: %v\n", goodput == res.Goodput)
	// Output:
	// tuned: placement=integrated discipline=fifo admit=8
	// replay matches the tuned goodput: true
}
