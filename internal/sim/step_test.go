package sim

// Step and RunUntil let the tests drive the engine one event, or up to
// one instant, at a time and look at its state in between. The
// simulator itself only calls Run.

// Step executes the next pending event, advancing the clock to its time,
// with any channel done that event delivers in place (Engine.runNow).
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	// Tested here rather than through Pending, which would put Step past
	// the inliner's budget.
	if e.next.ev == nil && len(e.heap) == 0 {
		return false
	}
	e.fire()
	return true
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for e.Pending() > 0 {
		top := e.next
		if top.ev == nil {
			top = e.heap[0]
		}
		if top.at > t {
			break
		}
		e.fire()
	}
	if t > e.now {
		e.now = t
	}
}
