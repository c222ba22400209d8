//go:build !race

package dmxrt

const raceEnabled = false
