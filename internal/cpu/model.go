package cpu

// Model holds the host CPU's calibration constants.
type Model struct {
	// Cores is the number of physical cores available to restructuring.
	Cores int
	// FreqHz is the core clock.
	FreqHz float64
	// SIMDLanes is the f32 width of the vector unit (AVX-256 → 8).
	SIMDLanes int
	// IssueEff derates peak vector throughput for the backend stalls the
	// top-down profile shows (53–77.6% backend-bound cycles).
	IssueEff float64
	// MemBWBytes is the socket's sustainable streaming bandwidth, shared
	// by every concurrently restructuring job.
	MemBWBytes float64
	// NonStreamPenalty multiplies memory traffic of stages whose inner
	// loop is not unit-stride (transposes, strided gathers): they defeat
	// the hardware prefetcher and waste cache lines.
	NonStreamPenalty float64
	// ThrashFactor derates the effective restructuring bandwidth below
	// the socket's raw streaming rate. It folds together the behaviors
	// Sec. IV-A profiles on these kernels: 6–16 MB batches thrashing the
	// 1 MB L2 (50–215 L1D MPKI), write-allocate traffic on every output
	// line, and the 130–140 ephemeral worker threads the math library
	// spawns per operation.
	ThrashFactor float64
}

// DefaultModel returns the calibrated Xeon 8260L configuration.
func DefaultModel() *Model {
	return &Model{
		Cores:            16,
		FreqHz:           2.4e9,
		SIMDLanes:        8,
		IssueEff:         0.04,
		MemBWBytes:       60e9,
		NonStreamPenalty: 3.0,
		ThrashFactor:     7.0,
	}
}
