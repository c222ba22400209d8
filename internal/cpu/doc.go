// Package cpu models the host processor of the multi-accelerator server.
//
// Two roles. First, its constants price data restructuring executed on
// the host — the Multi-Axl baseline of the paper runs every
// restructuring kernel on Xeon cores (internal/dmxsys turns them into
// the host's compute and memory channels), and the gap between this
// model and the DRX (internal/drx) is where DMX's speedup comes from. Second, it
// reproduces the Sec. IV-A characterization: a top-down stall breakdown
// and MPKI profile of restructuring operations (Fig. 5), derived from the
// same kernel statistics the cost model consumes.
//
// The model is analytic, calibrated to the paper's testbed: an Intel Xeon
// Platinum 8260L at 2.4 GHz, 16 cores in use, hyperthreading disabled,
// AVX-256 vector units, and ~6–16 MB streaming batches that thrash the
// 1 MB L2 (Sec. IV-A reports 50–215 L1D MPKI and 100% vector-unit
// occupancy on these kernels).
package cpu
