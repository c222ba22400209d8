// Package experiments regenerates every table and figure of the paper's
// evaluation (Secs. II, IV, VII). Each Fig*/Table* function runs the
// necessary system simulations and returns a typed result with a Render
// method that prints the same rows/series the paper reports; the
// cmd/dmxbench binary and the repository's bench harness are thin
// wrappers over these functions. Expected-shape assertions live in this
// package's tests, and EXPERIMENTS.md records paper-vs-measured numbers.
//
// Every figure is a sweep of isolated, deterministic simulations, so the
// generators enumerate their (concurrency × benchmark × configuration)
// cells up front and execute them on the sweep worker pool. Results are
// slotted by cell index and folded in the original nesting order, which
// keeps the rendered output bit-for-bit identical to a sequential run at
// any worker count.
//
// Figs. 3 and 11-15 all read one set of runs: n homogeneous copies of
// each Table I app under each placement. Those runs live in a
// process-wide grid (experiments.go), one cell per placement and
// (n, benchmark), simulated by whichever figure reads the cell first and
// shared read-only by every later one, so a full regeneration simulates
// each of the 120 cells once.
package experiments
