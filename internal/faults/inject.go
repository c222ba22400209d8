package faults

import (
	"dmx/internal/obs"
	"dmx/internal/sim"
)

// Fault-kind labels, used both for stream derivation (so the same
// station name draws independent timelines per mechanism) and for
// observability track naming.
const (
	kindDRX       = "drx"
	kindLink      = "link"
	kindStall     = "stall"
	kindTransient = "transient"
	kindRetry     = "retry"
)

// window is one incident: the station is impaired in [start, end).
type window struct {
	start, end sim.Time
	emitted    bool
}

// timeline generates a station's incident windows lazily from its
// stream: exponential up-times with mean mtbf, fixed repair length.
// Windows are generated only as far as queries reach, so the engine's
// event queue never holds far-future fault events.
type timeline struct {
	str    sim.Stream
	mtbf   sim.Duration
	repair sim.Duration
	// windows generated so far, in order; cursor is the end of the last
	// one (the next up-time starts there).
	windows []window
	cursor  sim.Time
}

func newTimeline(seed uint64, kind, name string, mtbf, repair sim.Duration) *timeline {
	return &timeline{str: sim.Stream(stationSeed(seed, kind, name)), mtbf: mtbf, repair: repair}
}

// extend generates windows until the last one starts after t, so a
// query at t is decidable. Generation depends only on the stream state
// and t, never on how many queries were made — that is what keeps
// timelines identical across runs with different query patterns.
func (tl *timeline) extend(t sim.Time) {
	for len(tl.windows) == 0 || tl.windows[len(tl.windows)-1].start <= t {
		up := tl.str.Exp(tl.mtbf)
		if up < sim.Nanosecond {
			up = sim.Nanosecond // keep windows strictly ordered
		}
		start := tl.cursor.Add(up)
		end := start.Add(tl.repair)
		tl.windows = append(tl.windows, window{start: start, end: end})
		tl.cursor = end
	}
}

// at reports whether the station is impaired at t and, when it is, the
// window's end (recovery instant) and whether this is the first
// observation of the window (so the caller can emit its obs events
// exactly once).
func (tl *timeline) at(t sim.Time) (down bool, until sim.Time, fresh bool) {
	if tl == nil || tl.mtbf <= 0 {
		return false, 0, false
	}
	tl.extend(t)
	// Scan backward: queries are approximately monotone in simulation
	// time, so the hit is almost always in the last few windows.
	for i := len(tl.windows) - 1; i >= 0; i-- {
		w := &tl.windows[i]
		if w.start > t {
			continue
		}
		if t < w.end {
			fresh = !w.emitted
			w.emitted = true
			return true, w.end, fresh
		}
		break // windows are ordered; earlier ones end earlier
	}
	return false, 0, false
}

// Counts tallies injected incidents for reports.
type Counts struct {
	DRXOutages    int // DRX outage windows observed by at least one hop
	LinkIncidents int // link incident windows observed by a transfer
	Stalls        int // kernel submissions that hit a stall window
	Transients    int // restructure attempts that drew a transient fault
}

// Injector materializes one plan against one simulation. A nil
// *Injector is the disabled state: every query reports "healthy" with
// zero overhead beyond the nil check, mirroring the nil-Recorder idiom
// of internal/obs. An Injector is single-goroutine, like the engine it
// serves; parallel sweeps build one per simulation.
type Injector struct {
	plan Plan
	rec  *obs.Recorder

	drx   map[string]*timeline
	link  map[string]*timeline
	stall map[string]*timeline
	trans map[string]*sim.Stream
	retry sim.Stream

	// Counts accumulates observed incidents.
	Counts Counts

	// OnIncident, when set, observes every fresh incident (outage, link
	// window, stall, transient) synchronously, right after its count
	// increments — on the engine the incident fired on. Cluster fleets
	// use it to stream fault totals to the router instead of polling.
	OnIncident func()
}

// New builds an injector for the plan; rec (optional) receives fault
// and repair instants. A disabled plan yields a nil injector.
func New(plan *Plan, rec *obs.Recorder) *Injector {
	if !plan.Enabled() {
		return nil
	}
	return &Injector{
		plan:  *plan,
		rec:   rec,
		drx:   make(map[string]*timeline),
		link:  make(map[string]*timeline),
		stall: make(map[string]*timeline),
		trans: make(map[string]*sim.Stream),
		retry: sim.Stream(stationSeed(plan.Seed, kindRetry, "")),
	}
}

// Enabled reports whether the injector is live.
func (in *Injector) Enabled() bool { return in != nil }

// incident fires the OnIncident hook for one fresh incident.
func (in *Injector) incident() {
	if in.OnIncident != nil {
		in.OnIncident()
	}
}

// lane fetches (or lazily creates) the timeline for one station.
func (in *Injector) lane(m map[string]*timeline, kind, name string, mtbf, repair sim.Duration) *timeline {
	tl, ok := m[name]
	if !ok {
		tl = newTimeline(in.plan.Seed, kind, name, mtbf, repair)
		m[name] = tl
	}
	return tl
}

// emitWindow records a fault/repair instant pair for a freshly observed
// incident window, timestamped at the window's true boundaries.
func (in *Injector) emitWindow(name string, start, until sim.Time) {
	in.rec.Instant(obs.Time(start), obs.TypeFault, 0, name, "", "", name, 0)
	in.rec.Instant(obs.Time(until), obs.TypeRepair, 0, name, "", "", name, 0)
}

// DRXDown reports whether the named DRX unit is in an outage at now
// and, if so, when it recovers.
func (in *Injector) DRXDown(name string, now sim.Time) (bool, sim.Time) {
	if in == nil || in.plan.DRXMTBF <= 0 {
		return false, 0
	}
	tl := in.lane(in.drx, kindDRX, name, in.plan.DRXMTBF, in.plan.DRXRepair)
	down, until, fresh := tl.at(now)
	if fresh {
		in.Counts.DRXOutages++
		in.emitWindow(name, until.Add(-in.plan.DRXRepair), until)
		in.incident()
	}
	return down, until
}

// LinkState implements the fabric fault hook: whether the named link is
// fully down at now and, when degraded instead, the fraction of its
// bandwidth it retains (1 = healthy).
func (in *Injector) LinkState(name string, now sim.Time) (down bool, factor float64) {
	if in == nil || in.plan.LinkMTBF <= 0 {
		return false, 1
	}
	tl := in.lane(in.link, kindLink, name, in.plan.LinkMTBF, in.plan.LinkRepair)
	hit, until, fresh := tl.at(now)
	if fresh {
		in.Counts.LinkIncidents++
		in.emitWindow(name, until.Add(-in.plan.LinkRepair), until)
		in.incident()
	}
	if !hit {
		return false, 1
	}
	if in.plan.LinkDegradeFactor > 0 {
		return false, in.plan.LinkDegradeFactor
	}
	return true, 0
}

// StallUntil reports how long a kernel submitted on the named device at
// now must wait out a stall window (0 = no stall).
func (in *Injector) StallUntil(name string, now sim.Time) sim.Duration {
	if in == nil || in.plan.StallMTBF <= 0 {
		return 0
	}
	tl := in.lane(in.stall, kindStall, name, in.plan.StallMTBF, in.plan.StallRepair)
	down, until, fresh := tl.at(now)
	if fresh {
		in.Counts.Stalls++
		in.emitWindow(name, until.Add(-in.plan.StallRepair), until)
		in.incident()
	}
	if !down {
		return 0
	}
	return until.Sub(now)
}

// TransientFault draws whether one restructuring attempt on the named
// DRX unit faults. Each unit has its own stream, so attempt order on
// one unit never perturbs another's draws.
func (in *Injector) TransientFault(name string) bool {
	if in == nil || in.plan.TransientProb <= 0 {
		return false
	}
	str, ok := in.trans[name]
	if !ok {
		s := sim.Stream(stationSeed(in.plan.Seed, kindTransient, name))
		str = &s
		in.trans[name] = str
	}
	hit := str.Float64() < in.plan.TransientProb
	if hit {
		in.Counts.Transients++
		in.incident()
	}
	return hit
}

// RetryBackoff computes the delay before attempt n (n ≥ 2) under the
// policy, adding the injector's deterministic jitter. With a nil
// injector the base backoff is returned unjittered, so a retry policy
// works without a fault plan.
func (in *Injector) RetryBackoff(p RetryPolicy, attempt int) sim.Duration {
	d := p.backoffFor(attempt)
	if in == nil || p.Jitter <= 0 || d <= 0 {
		return d
	}
	return d + sim.Duration(float64(d)*p.Jitter*in.retry.Float64())
}

// stationSeed derives an independent sim.Stream state for one (kind,
// station) pair: an FNV-1a hash of the labels mixed into the plan seed
// through one splitmix round. Distinct stations — and distinct fault
// kinds on the same station — get uncorrelated streams.
func stationSeed(seed uint64, kind, name string) uint64 {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(kind); i++ {
		h = (h ^ uint64(kind[i])) * fnvPrime
	}
	h = (h ^ '/') * fnvPrime
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	s := sim.Stream(seed ^ h)
	return s.Uint64()
}
