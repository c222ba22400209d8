package sim

import "math"

// Stream is a splitmix64 generator: tiny, fast, and identical on every
// platform, which is what keeps seeded timelines (Poisson arrivals,
// fault incidents) byte-reproducible. The value is the generator's
// state, so Stream(seed) starts a stream.
type Stream uint64

// Uint64 returns the next raw sample.
func (s *Stream) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed duration with the given
// mean (inverse-CDF sampling; 1-u keeps the log argument positive).
func (s *Stream) Exp(mean Duration) Duration {
	return FromSeconds(-math.Log(1-s.Float64()) * mean.Seconds())
}
