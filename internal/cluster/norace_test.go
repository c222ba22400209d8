//go:build !race

package cluster_test

// raceEnabled reports whether the race detector is on. sync.Pool drops
// items at random under it, so allocation pins skip.
const raceEnabled = false
