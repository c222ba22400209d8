//go:build race

package dmxrt

// raceEnabled reports whether the race detector is on. Its instrumented
// build allocates differently, so exact allocation pins skip.
const raceEnabled = true
