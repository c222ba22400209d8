// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for every timing model in this repository:
// PCIe links, DRX execution, CPU restructuring, accelerator kernels, and
// driver latencies all advance a single virtual clock owned by an Engine.
// Determinism is a hard requirement (experiments must reproduce
// bit-for-bit), so the kernel is callback-based — no goroutines, no
// wall-clock reads — and ties are broken by schedule order.
//
// Pending events live in a ladder queue (queue.go): tiered time
// buckets with a sorted bottom rung, giving amortized O(1)
// schedule/fire/cancel at any occupancy while realizing the exact
// (time, seq) total order a binary heap would (enforced by a
// differential fuzz harness against a reference heap engine).
// Cancellation purges eagerly — no tombstones, so Pending counts live
// events exactly — and event nodes are recycled through per-engine
// slabs, keeping the steady-state loop allocation-free at any
// occupancy. ScheduleBatch files same-instant completion storms in one
// queue walk; Reschedule is the timer-reset idiom with an in-place
// fast path for the latest-scheduled event.
//
// Server's backlog ordering is pluggable (Discipline): FIFO's
// power-of-two ring is the zero-allocation default, Priority and WFQ
// order by static per-class tables, and Keyed is a (key, seq) min-heap
// whose key travels with the job — NewEDF submits absolute deadlines
// (earliest first, MaxInt64 for none), NewSRS submits remaining
// service demand (shortest first). SubmitKeyed attaches the key;
// SubmitClass delegates with a zero key for the table-driven
// disciplines. All ties break by submission order, preserving
// determinism under any policy.
//
// The kernel is also the lowest-level producer of the observability
// stream (internal/obs): Engine carries an optional *obs.Recorder;
// Server emits a service span per completed job (per-slot sub-tracks
// keep multi-slot stations nest-safe) and Channel emits in-flight
// occupancy counters. With the recorder nil — the default — every
// emission path is a single branch, and the steady-state schedule/fire
// loop stays allocation-free (pinned by AllocsPerRun tests).
package sim
