package cluster

// Fired reports the fleet engine's fired-event count, for the
// benchmarks of the external test package.
func (f *Fleet) Fired() uint64 { return f.eng.Fired() }
