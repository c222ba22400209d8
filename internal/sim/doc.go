// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for every timing model in this repository:
// PCIe links, DRX execution, CPU restructuring, accelerator kernels, and
// driver latencies all advance a single virtual clock owned by an Engine.
// Determinism is a hard requirement (experiments must reproduce
// bit-for-bit), so the kernel is callback-based — no goroutines, no
// wall-clock reads — and ties are broken by schedule order.
//
// Pending events live in an indexed 4-ary min-heap on (time, seq)
// with the keys stored inline, so a sift compares siblings without
// chasing pointers, plus a one-entry next-event slot beside it: an
// event that precedes every pending one (typically a callback's
// zero-delay successor) waits there and fires without touching the
// heap. The slot always precedes every heap entry, so the firing order
// is the heap's (time, seq) order exactly. Every event knows its heap
// index (or that it sits in the slot), so cancellation purges eagerly
// in O(log n) — no tombstones, so Pending counts live events exactly —
// and event nodes are recycled through per-engine slabs, keeping the
// steady-state loop allocation-free. A differential fuzz harness checks
// the realized order against a plain reference heap that schedules
// everything up front. The pending set is meant to be in-flight work:
// a producer that knows its events ahead (the serving drivers' arrival
// timelines) claims their seqs with Reserve and schedules each one only
// when its predecessor fires, keeping the (time, seq) key, and so the
// firing order, of an up-front schedule. Reschedule is the timer-reset
// idiom with an in-place fast path for the latest-scheduled event.
//
// Server's backlog ordering is pluggable (Discipline): FIFO's
// power-of-two ring is the zero-allocation default, WRR takes classes
// in turn, and Keyed is a (key, seq) min-heap whose key travels with
// the job — the class's static priority, the absolute deadline
// (earliest first, MaxInt64 for none) or the remaining service demand
// (shortest first). SubmitKeyed attaches the key. All ties break by
// submission order, preserving determinism under any policy.
//
// The kernel is also the lowest-level producer of the observability
// stream (internal/obs): Engine carries an optional *obs.Recorder;
// Server emits a service span per completed job (per-slot sub-tracks
// keep multi-slot stations nest-safe) and Channel emits in-flight
// occupancy counters. With the recorder nil — the default — every
// emission path is a single branch, and the steady-state schedule/fire
// loop stays allocation-free (pinned by AllocsPerRun tests).
package sim
