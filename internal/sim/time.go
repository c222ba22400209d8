package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in picoseconds.
//
// Picosecond resolution lets the models express both sub-nanosecond
// per-byte wire times (a PCIe Gen5 x16 link moves a byte in ~16 ps) and
// multi-second end-to-end runs without accumulating rounding error.
// The int64 range covers about 106 days of virtual time.
type Time int64

// Duration is a span of virtual time, also in picoseconds. Time and
// Duration are kept as distinct types so that a point on the clock cannot
// be accidentally used where a span is required.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// FromSeconds converts a floating-point number of seconds to a Duration.
func FromSeconds(s float64) Duration {
	return Duration(math.Round(s * float64(Second)))
}

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 {
	return float64(d) / float64(Second)
}

// Nanoseconds reports the duration as a floating-point number of nanoseconds.
func (d Duration) Nanoseconds() float64 {
	return float64(d) / float64(Nanosecond)
}

// Microseconds reports the duration as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 {
	return float64(d) / float64(Microsecond)
}

// Milliseconds reports the duration as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 {
	return float64(d) / float64(Millisecond)
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time with an adaptive unit for debugging output.
func (t Time) String() string { return Duration(t).String() }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3fns", d.Nanoseconds())
	case d < Millisecond:
		return fmt.Sprintf("%.3fus", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.6fs", d.Seconds())
	}
}

// BytesAt returns the time to move n bytes at rate bytesPerSec.
func BytesAt(n int64, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 {
		panic("sim: BytesAt requires a positive rate")
	}
	return Duration(math.Round(float64(n) * float64(Second) / bytesPerSec))
}
