package sim

import (
	"fmt"

	"dmx/internal/obs"
)

// Channel models a bandwidth-shared transport (a PCIe link direction, a
// DRAM channel, a memory bus). Concurrent transfers receive an equal
// fair share of the channel's capacity — the processor-sharing discipline
// PCIe flow control approximates when several devices stream through one
// link. Whenever the set of active transfers changes, the remaining bytes
// of every transfer are advanced at the old share and completion is
// re-predicted at the new share.
type Channel struct {
	eng         *Engine
	name        string
	bytesPerSec float64
	// active holds in-flight transfers in start order (ascending seq),
	// which makes simultaneous-completion callbacks fire in Start order
	// without sorting.
	active     []*transfer
	seq        uint64
	lastUpdate Time
	nextDone   EventRef
	// completeFn is the bound complete method, materialized once so that
	// reschedule doesn't allocate a fresh method-value closure per call.
	completeFn func()

	// free recycles retired Transfers: the channel hot loop (start,
	// advance, complete, restart) then runs without allocating.
	free []*transfer
	// finished is scratch for complete(), reused across calls.
	finished []*transfer
	// one backs the first transfer record, and the three one-element
	// arrays back active, free and finished until a second transfer
	// overlaps: a channel that carries one transfer at a time, as most
	// device links do, never allocates.
	one                         transfer
	oneActive, oneFree, oneDone [1]*transfer

	// TotalBytes accumulates every byte the channel has carried; the
	// energy model charges transfer energy against it.
	TotalBytes int64
	// BusyTime accumulates time during which at least one transfer was
	// active, for utilization reporting.
	BusyTime Duration
}

// NewChannel creates a channel with the given capacity in bytes/second.
func NewChannel(eng *Engine, name string, bytesPerSec float64) *Channel {
	return new(Channel).Init(eng, name, bytesPerSec)
}

// Init sets up a zero Channel in place and returns it: NewChannel for a
// channel embedded in a larger struct, so a full-duplex link costs one
// allocation rather than one per direction.
func (c *Channel) Init(eng *Engine, name string, bytesPerSec float64) *Channel {
	if bytesPerSec <= 0 {
		panic("sim: channel capacity must be positive")
	}
	c.eng, c.name, c.bytesPerSec = eng, name, bytesPerSec
	c.lastUpdate = eng.Now()
	c.completeFn = c.complete
	c.active, c.finished = c.oneActive[:0], c.oneDone[:0]
	c.free = append(c.oneFree[:0], &c.one)
	return c
}

// Name reports the channel's diagnostic name.
func (c *Channel) Name() string { return c.name }

// Capacity reports the channel capacity in bytes/second.
func (c *Channel) Capacity() float64 { return c.bytesPerSec }

// transfer is one in-flight flow on a Channel. The channel owns every
// transfer and reuses retired ones.
type transfer struct {
	seq       uint64  // start order, for deterministic completion callbacks
	remaining float64 // bytes left to move
	done      func()
}

// Start begins moving n bytes through the channel and invokes done when
// the last byte lands. A zero-byte transfer completes after one event
// (still asynchronously, preserving callback ordering invariants).
func (c *Channel) Start(n int64, done func()) {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative transfer size %d", n))
	}
	c.advance()
	var t *transfer
	if ln := len(c.free); ln > 0 {
		t = c.free[ln-1]
		c.free[ln-1] = nil
		c.free = c.free[:ln-1]
	} else {
		t = &transfer{}
	}
	t.seq = c.seq
	t.remaining = float64(n)
	t.done = done
	c.seq++
	c.active = append(c.active, t)
	c.TotalBytes += n
	c.occupancy()
	c.reschedule()
}

// occupancy samples the in-flight transfer count on every membership
// change. With a nil recorder this is one branch — the channel hot loop
// stays allocation-free (pinned by TestChannelSteadyStateDoesNotAllocate).
func (c *Channel) occupancy() {
	c.eng.Obs.Counter(obs.Time(c.eng.Now()), c.name, "inflight", float64(len(c.active)))
}

// recycle retires a transfer to the free list.
func (c *Channel) recycle(t *transfer) {
	t.done = nil
	c.free = append(c.free, t)
}

// advance credits progress to all active transfers for the time elapsed
// since the last update, at the fair-share rate that was in effect.
func (c *Channel) advance() {
	now := c.eng.Now()
	dt := now.Sub(c.lastUpdate)
	c.lastUpdate = now
	if dt <= 0 || len(c.active) == 0 {
		return
	}
	c.BusyTime += dt
	share := c.bytesPerSec / float64(len(c.active))
	moved := share * dt.Seconds()
	for _, t := range c.active {
		t.remaining -= moved
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
}

// reschedule re-predicts the next completion under the current share.
// The timer reset rides Engine.Reschedule: the canceled prediction's
// event node is purged and reused immediately (no tombstone to re-pop),
// and an unchanged prediction is coalesced in place.
func (c *Channel) reschedule() {
	if len(c.active) == 0 {
		c.nextDone.Cancel()
		c.nextDone = EventRef{}
		return
	}
	least := c.active[0].remaining
	for _, t := range c.active[1:] {
		if t.remaining < least {
			least = t.remaining
		}
	}
	share := c.bytesPerSec / float64(len(c.active))
	wait := Duration(least / share * float64(Second))
	c.nextDone = c.eng.Reschedule(c.nextDone, wait, c.completeFn)
}

// complete retires every transfer whose bytes have drained, then
// reschedules. Multiple transfers can finish at the same instant (equal
// sizes started together), so all are collected before callbacks run.
func (c *Channel) complete() {
	c.nextDone = EventRef{}
	c.advance()
	// active is kept in start order, so the finished set is collected —
	// and its callbacks fire — in Start order, keeping runs reproducible.
	finished := c.finished[:0]
	kept := c.active[:0]
	for _, t := range c.active {
		// Fair-share arithmetic in float64 can leave a sub-byte residue;
		// anything under one byte is done.
		if t.remaining < 1.0 {
			finished = append(finished, t)
		} else {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(c.active); i++ {
		c.active[i] = nil
	}
	c.active = kept
	if len(finished) > 0 {
		c.occupancy()
	}
	c.reschedule()
	// Callbacks run after bookkeeping so they may start new transfers on
	// this same channel re-entrantly. Several transfers retiring at one
	// instant are each scheduled now, in Start order, so they fire in
	// Start order. A lone one is delivered through runNow as the last
	// statement: in place when nothing else is due now, which is exactly
	// when its queued event would have fired.
	if len(finished) == 1 {
		t := finished[0]
		done := t.done
		c.recycle(t)
		c.finished = finished[:0]
		if done != nil {
			c.eng.runNow(done)
		}
		return
	}
	now := c.eng.Now()
	for _, t := range finished {
		if t.done != nil {
			c.eng.At(now, t.done)
		}
		c.recycle(t)
	}
	c.finished = finished[:0]
}
