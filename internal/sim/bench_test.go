package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineSchedule measures the DES scheduling hot loop: every
// simulated kernel completion, DMA, and driver delay passes through
// Schedule + Step. The fan pattern (each fired event schedules two more
// up to a horizon) approximates the branching callback chains the system
// model generates.
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		depth := 0
		var fan func()
		fan = func() {
			if depth >= 4096 {
				return
			}
			depth++
			e.Schedule(10*Nanosecond, fan)
			e.Schedule(20*Nanosecond, fan)
		}
		e.Schedule(0, fan)
		e.Run()
	}
}

// BenchmarkEngineScheduleFlat measures the steady-state cost of one
// schedule+fire pair with a warm engine (the free-list regime: events
// are continuously recycled rather than freshly allocated).
func BenchmarkEngineScheduleFlat(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Nanosecond, nop)
		e.Step()
	}
}

// Queue-shape delay generators. These are the pending-set shapes the
// dmxsys models actually produce (per the cpuprofile audit in
// EXPERIMENTS.md): uniform and bimodal holds from mixed DMA/kernel/driver
// delays, near-monotone holds from per-byte wire times on a loaded link,
// and heavy-cancel from watchdog timers and channel re-predictions that
// are almost always canceled before they fire.

func delayUniform(r *Stream) Duration {
	return Duration(r.Uint64()%1_000_000) * Picosecond // 0–1 µs
}

func delayBimodal(r *Stream) Duration {
	if r.Uint64()%5 == 0 {
		return 900*Nanosecond + Duration(r.Uint64()%100_000)*Picosecond // 0.9–1 µs
	}
	return Duration(r.Uint64()%50_000) * Picosecond // 0–50 ns
}

func delayNearMonotone(r *Stream) Duration {
	return 100*Nanosecond + Duration(r.Uint64()%1_000)*Picosecond // 100 ns ± 1 ns
}

// benchShape measures one steady-state schedule+fire pair with `pending`
// events in flight: the fixed-occupancy regime a saturated serving run
// holds the engine in. The warm lap before the timer carries the queue
// through full epochs so structure growth is not timed.
func benchShape(b *testing.B, pending int, delay func(*Stream) Duration) {
	e := NewEngine()
	rng := Stream(0x5eed)
	nop := func() {}
	for i := 0; i < pending; i++ {
		e.Schedule(delay(&rng), nop)
	}
	for i := 0; i < 2*pending; i++ {
		e.Schedule(delay(&rng), nop)
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(delay(&rng), nop)
		e.Step()
	}
}

// occupancies spans the regimes that matter. The serving drivers feed
// arrivals on demand, so the pending set is in-flight work: 32 covers
// where the serving workloads run (tens of pending events — a
// one-host Poisson run peaks near 20, a four-host batched fleet near
// 40). 1k and 64k are up-front schedules and saturated fleets, where
// the heap's depth starts to show.
var occupancies = []int{32, 1024, 65536}

func BenchmarkEngineScheduleUniform(b *testing.B) {
	for _, p := range occupancies {
		b.Run(fmt.Sprintf("pending=%d", p), func(b *testing.B) { benchShape(b, p, delayUniform) })
	}
}

func BenchmarkEngineScheduleBimodal(b *testing.B) {
	for _, p := range occupancies {
		b.Run(fmt.Sprintf("pending=%d", p), func(b *testing.B) { benchShape(b, p, delayBimodal) })
	}
}

func BenchmarkEngineScheduleNearMonotone(b *testing.B) {
	for _, p := range occupancies {
		b.Run(fmt.Sprintf("pending=%d", p), func(b *testing.B) { benchShape(b, p, delayNearMonotone) })
	}
}

// BenchmarkEngineScheduleHeavyCancel holds occupancy near `pending`
// while churning cancels through a ring of live refs: the watchdog /
// re-prediction regime where most timers never fire. Each iteration
// cancels one ring timer (usually still live), schedules its
// replacement plus one progress event, then fires events as needed to
// hold occupancy — so the clock advances while the heap purges
// canceled entries from the middle under the churn.
func BenchmarkEngineScheduleHeavyCancel(b *testing.B) {
	for _, p := range occupancies {
		b.Run(fmt.Sprintf("pending=%d", p), func(b *testing.B) {
			e := NewEngine()
			rng := Stream(0xcace1)
			nop := func() {}
			refs := make([]EventRef, p)
			for i := range refs {
				refs[i] = e.Schedule(delayUniform(&rng), nop)
			}
			churn := func(i int) {
				slot := i % p
				refs[slot].Cancel()
				refs[slot] = e.Schedule(delayUniform(&rng), nop)
				e.Schedule(delayUniform(&rng), nop)
				for e.Pending() > p {
					e.Step()
				}
			}
			for i := 0; i < 2*p; i++ { // warm through full epochs
				churn(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn(i)
			}
		})
	}
}

// BenchmarkChannelContention measures the fair-share channel under the
// contention pattern of a loaded fabric link: a rotating population of
// overlapping transfers, each completion starting the next. Every
// membership change re-predicts completion, which is the channel's hot
// path.
func BenchmarkChannelContention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		ch := NewChannel(e, "bench", 1e9)
		started := 0
		var launch func()
		launch = func() {
			if started >= 512 {
				return
			}
			started++
			ch.Start(1<<16, launch)
		}
		// Eight initial flows keep the channel continuously contended.
		for k := 0; k < 8; k++ {
			launch()
		}
		e.Run()
	}
}
