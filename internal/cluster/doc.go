// Package cluster composes N replicas of one dmxsys.System into a
// served fleet: one shared deterministic engine, an inter-host network
// fabric modeled with the same bandwidth-shared-channel machinery that
// models PCIe links inside a host, and a front-door router that spreads
// an open-loop arrival process across the replicas.
//
// The split follows dmxsys's Plan/Instantiate refactor: a fleet builds
// one Plan (validation, DRX timing, scheduling tables)
// and instantiates it N times under distinct host prefixes ("h0/",
// "h1/", ...), so replicas share the expensive immutable half and the
// whole cluster runs as a single event-ordered simulation — fleet
// results are byte-identical at any sweep worker count for free.
//
// The router is placement- and fault-aware. PolicyScore routes each
// arrival to the host maximizing cap(host, app)/(outstanding+1), where
// cap is the capacity bound dmxsys.Plan.Capacities derives by walking
// one request of each app through the host plan's request machine — a
// heterogeneous fleet therefore steers a pipeline toward the hosts
// whose DRX placement favors it. New derives the bounds only for score
// routing across more than one host, once per distinct plan. Hosts
// whose fault-injection incident count spikes inside a trailing window
// are drained (no new work) until the window clears, and a per-host
// outstanding cap provides cluster-level admission control on top of
// each host's own AdmitLimit.
//
// Each host retires its requests through System.Admit's callback into
// the host's own traffic.Tally; requests the router turns away land in
// one more tally, and traffic.Spec.Report rolls them all up exactly as
// System.RunLoad rolls up its single tally.
//
// A fleet of one host with the zero-valued network and router configs
// reproduces System.RunLoad bit for bit: same engine timeline, same
// LoadReport bytes, same trace (a one-host router has no choice, so it
// records no route instant for a delivery). That identity is pinned by
// a test and is what makes the cluster layer a refactor-safe superset
// of the single-host serving stack, and the one path every public load
// run takes (dmx.SimulateLoad, Spec.Simulate, dmxsim).
package cluster
