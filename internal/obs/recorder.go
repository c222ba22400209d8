package obs

// Recorder collects events in emission order. A nil *Recorder is the
// disabled tracer: every method no-ops, and because callers build Event
// values on the stack and the nil check precedes all work, the disabled
// path performs no allocation — the DES hot loops stay allocation-free
// whether or not the binary was built with tracing call sites.
//
// A Recorder is single-goroutine, like the simulation engine that feeds
// it. Parallel sweeps give each simulation its own Recorder; since each
// engine is deterministic, the recorded stream (and anything rendered
// from it) is byte-identical at any worker count.
type Recorder struct {
	events []Event
	seq    uint64
	flowID uint64

	// OnEvent, when set, observes every event synchronously at emission
	// (after Seq assignment). It is the hook text renderers stream
	// through; it must not emit back into the Recorder.
	OnEvent func(*Event)
}

// New returns an empty, enabled Recorder.
func New() *Recorder { return &Recorder{} }

// Events exposes the recorded stream in emission order. The slice is the
// Recorder's backing store; callers must not mutate it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Emit records one event, assigning its sequence number. Emit on a nil
// Recorder is a no-op.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	ev.Seq = r.seq
	r.seq++
	r.events = append(r.events, ev)
	if r.OnEvent != nil {
		r.OnEvent(&r.events[len(r.events)-1])
	}
}

// Span records a closed interval on a track.
func (r *Recorder) Span(begin Time, dur Duration, typ Type, phase Phase, step uint8, track, app, name string, bytes int64) {
	if r == nil {
		return
	}
	r.Emit(Event{TS: begin, Dur: dur, Kind: KindSpan, Type: typ, Phase: phase,
		Step: step, Track: track, App: app, Name: name, Bytes: bytes})
}

// Instant records a point event on a track.
func (r *Recorder) Instant(t Time, typ Type, step uint8, track, peer, app, name string, bytes int64) {
	if r == nil {
		return
	}
	r.Emit(Event{TS: t, Kind: KindInstant, Type: typ, Step: step,
		Track: track, Peer: peer, App: app, Name: name, Bytes: bytes})
}

// Counter records a sample of the named series on a track.
func (r *Recorder) Counter(t Time, track, name string, v float64) {
	if r == nil {
		return
	}
	r.Emit(Event{TS: t, Kind: KindCounter, Track: track, Type: TypeOccupancy,
		Name: name, Value: v})
}

// FlowPair records a begin/end arrow between two tracks (a DMA hop): the
// begin anchors at `begin` on `from`, the end at `end` on `to`. Both
// carry the same fresh flow id.
func (r *Recorder) FlowPair(begin, end Time, typ Type, from, to, app, name string, bytes int64) {
	if r == nil {
		return
	}
	r.flowID++
	id := r.flowID
	r.Emit(Event{TS: begin, Kind: KindFlowBegin, Type: typ, Track: from,
		Peer: to, App: app, Name: name, Bytes: bytes, Flow: id})
	r.Emit(Event{TS: end, Kind: KindFlowEnd, Type: typ, Track: to,
		Peer: from, App: app, Name: name, Bytes: bytes, Flow: id})
}
