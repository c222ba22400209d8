package cluster

import (
	"fmt"

	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// FleetConfig composes N serving replicas into a cluster.
type FleetConfig struct {
	// Hosts is the replica count (≥ 1).
	Hosts int
	// Base is the shared host configuration. Its Obs recorder (or Trace
	// hook, single-host only) becomes the whole fleet's event sink.
	Base dmxsys.Config
	// PerHost, when non-empty, overrides Base per replica (length must
	// equal Hosts) — a heterogeneous fleet mixing placements or DRX
	// geometries. Trace sinks still come from Base.
	PerHost []dmxsys.Config
	// Net models the inter-host network; the zero value disables it.
	Net NetConfig
	// Router parameterizes load balancing, per-host admission, and
	// fault-aware draining; the zero value is score routing, uncapped.
	Router RouterConfig
	// Shards requests conservative-parallel execution: the fleet is
	// partitioned across up to Shards event lanes (one per host plus a
	// global lane for the router and core fabric, so at most Hosts+1 are
	// used) that run concurrently inside lookahead windows derived from
	// Net.Latency. Reports, traces, and metrics are byte-identical at any
	// value. 0 or 1 means sequential; a fleet without a network latency
	// has no lookahead and always runs sequentially regardless of Shards.
	Shards int
}

// hostCfg is host h's effective configuration.
func (c FleetConfig) hostCfg(h int) dmxsys.Config {
	if len(c.PerHost) > 0 {
		return c.PerHost[h]
	}
	return c.Base
}

// Fleet is N instantiated replicas of a serving plan on one shard
// group of deterministic engines — host h on lane 1+h%(K−1), the
// router and core fabric on lane 0 — joined by a network fabric and
// fronted by the cluster router. With Shards ≤ 1 (or no network
// latency) the group is a single plain engine and Run is the classic
// sequential loop. Like a System, a Fleet is single-shot: Run consumes
// the engines.
type Fleet struct {
	cfg     FleetConfig
	g       *sim.ShardGroup
	eng0    *sim.Engine   // global lane: router, arrivals, core fabric
	hostEng []*sim.Engine // per-host lane engines (aliases of eng0 when sequential)
	plans   []*dmxsys.Plan
	hosts   []*dmxsys.System
	net     *netFabric
	rt      *router
	routed  [][]int // [host][app] requests delivered to the host
}

// New validates the configuration, builds the plans (one shared plan
// for a homogeneous fleet), and instantiates every replica under its
// host prefix on one engine.
func New(cfg FleetConfig, pipelines []*dmxsys.Pipeline) (*Fleet, error) {
	if cfg.Hosts < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 host (got %d)", cfg.Hosts)
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if cfg.Router.HostAdmit < 0 || cfg.Router.DrainIncidents < 0 || cfg.Router.DrainWindow < 0 {
		return nil, fmt.Errorf("cluster: negative router parameter")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cluster: negative shard count %d", cfg.Shards)
	}
	if len(cfg.PerHost) != 0 && len(cfg.PerHost) != cfg.Hosts {
		return nil, fmt.Errorf("cluster: PerHost has %d entries for %d hosts", len(cfg.PerHost), cfg.Hosts)
	}
	if cfg.Hosts > 1 && cfg.Base.Trace != nil {
		return nil, fmt.Errorf("cluster: the text Trace hook is single-host only; use Base.Obs for fleet traces")
	}
	for h := range cfg.PerHost {
		if cfg.PerHost[h].Obs != nil || cfg.PerHost[h].Trace != nil {
			return nil, fmt.Errorf("cluster: set trace sinks on Base, not PerHost[%d]", h)
		}
	}
	// Lane count: one lane per host plus the global lane, capped by the
	// requested shard count. NewShardGroup itself falls back to one plain
	// engine when the lookahead (the fabric latency) is zero — a fleet
	// whose hosts are reachable instantaneously cannot run conservatively
	// in parallel, and silently degrading beats refusing to run.
	lanes := cfg.Shards
	if lanes > cfg.Hosts+1 {
		lanes = cfg.Hosts + 1
	}
	g := sim.NewShardGroup(lanes, cfg.Net.Latency)
	f := &Fleet{cfg: cfg, g: g, eng0: g.Engine(0)}
	f.hostEng = make([]*sim.Engine, cfg.Hosts)
	var shared *dmxsys.Plan
	for h := 0; h < cfg.Hosts; h++ {
		var (
			p   *dmxsys.Plan
			err error
		)
		if len(cfg.PerHost) == 0 {
			// Homogeneous replicas share one immutable plan: layout,
			// warmed DRX timings, scheduling tables, capacity bounds.
			if shared == nil {
				shared, err = dmxsys.NewPlan(cfg.Base, pipelines)
			}
			p = shared
		} else {
			p, err = dmxsys.NewPlan(cfg.PerHost[h], pipelines)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: host %d: %w", h, err)
		}
		pfx := ""
		if cfg.Hosts > 1 {
			// A one-host fleet keeps the plain station names so its run
			// is byte-identical to a standalone System.
			pfx = fmt.Sprintf("h%d/", h)
		}
		lane := 0
		if k := g.Lanes(); k > 1 {
			lane = 1 + h%(k-1)
		}
		f.hostEng[h] = g.Engine(lane)
		sys, err := p.Instantiate(f.hostEng[h], dmxsys.HostOpts{Prefix: pfx, Obs: cfg.Base.Obs})
		if err != nil {
			return nil, fmt.Errorf("cluster: host %d: %w", h, err)
		}
		f.plans = append(f.plans, p)
		f.hosts = append(f.hosts, sys)
	}
	if f.eng0.Obs == nil {
		// Hosts install the fleet recorder on their own lanes; the global
		// lane carries the router and fabric and needs it too.
		f.eng0.Obs = cfg.Base.Obs
	}
	apps := f.plans[0].Apps()
	caps := make([][]float64, cfg.Hosts)
	f.routed = make([][]int, cfg.Hosts)
	for h := range caps {
		caps[h] = make([]float64, apps)
		for a := 0; a < apps; a++ {
			caps[h][a] = f.plans[h].Capacity(a).PerSecond
		}
		f.routed[h] = make([]int, apps)
	}
	f.rt = newRouter(cfg.Router, caps, apps)
	f.net = newNetFabric(cfg.Net, f.eng0, f.hostEng)
	if cfg.Router.DrainIncidents > 0 {
		// Fault-aware draining is push-based: each fresh incident streams
		// a notification to the router over the fabric's one-way latency
		// instead of the router polling host state at every arrival. The
		// counter is lane-local to the host; the router folds it into the
		// drain window on the global lane when the notification lands.
		// Installed only when draining is configured, so other fleets keep
		// the polling-free event stream they always had.
		lat := cfg.Net.Latency
		for h := range f.hosts {
			h := h
			he := f.hostEng[h]
			total := 0
			f.hosts[h].OnFaultIncident(func() {
				total++
				n := total
				he.Send(f.eng0, lat, func() {
					f.rt.observe(h, n, f.eng0.Now())
				})
			})
		}
	}
	return f, nil
}

// Hosts reports the replica count.
func (f *Fleet) Hosts() int { return len(f.hosts) }

// Shards reports the event-lane count the fleet actually runs with: 1
// when sequential (whether requested or forced by a zero-latency
// fabric), otherwise the clamped FleetConfig.Shards.
func (f *Fleet) Shards() int { return f.g.Lanes() }

// Routed reports, per host and per app, how many requests the router
// delivered (populated by Run).
func (f *Fleet) Routed() [][]int { return f.routed }

// FaultCounts sums the fault incidents every replica observed.
func (f *Fleet) FaultCounts() faults.Counts {
	var c faults.Counts
	for _, s := range f.hosts {
		hc := s.FaultCounts()
		c.DRXOutages += hc.DRXOutages
		c.LinkIncidents += hc.LinkIncidents
		c.Stalls += hc.Stalls
		c.Transients += hc.Transients
	}
	return c
}

// Run drives the fleet under spec's arrival process and rolls the
// per-replica accounting up into one cluster-wide LoadReport. Every
// request retires into exactly one per-(host, app) partial row (or the
// router's rejection row), and the merged report preserves per-app
// tail-latency accounting: latency histograms merge bucket-for-bucket,
// quantiles are re-derived from the merged histograms, and availability
// spans the whole fleet. With one host and the zero-valued network and
// router configs the report is byte-identical to System.RunLoad's.
func (f *Fleet) Run(spec traffic.Spec) (traffic.LoadReport, error) {
	if err := spec.Validate(); err != nil {
		return traffic.LoadReport{}, err
	}
	nh := len(f.hosts)
	apps := f.plans[0].Apps()
	rep := traffic.LoadReport{Arrival: spec.Arrival, Seed: spec.Seed}
	rep.PerApp = make([]traffic.AppLoad, apps)

	// Partial accounting rows: one per (host, app), plus one router row
	// per app holding router-level rejections. MergeApps sums them.
	parts := make([][]traffic.AppLoad, nh)
	firsts := make([][]sim.Time, nh)
	lasts := make([][]sim.Time, nh)
	for h := 0; h < nh; h++ {
		parts[h] = make([]traffic.AppLoad, apps)
		firsts[h] = make([]sim.Time, apps)
		lasts[h] = make([]sim.Time, apps)
		for i := 0; i < apps; i++ {
			parts[h][i].App = f.plans[0].Pipeline(i).Name
		}
	}
	routerAL := make([]traffic.AppLoad, apps)
	for i := range routerAL {
		routerAL[i].App = f.plans[0].Pipeline(i).Name
	}

	// Router trace peers, formatted once rather than per routed request.
	hostNames := make([]string, nh)
	for h := range hostNames {
		hostNames[h] = fmt.Sprintf("h%d", h)
	}

	remaining := 0
	for i := 0; i < apps; i++ {
		i := i
		pipe := f.plans[0].Pipeline(i)
		dl := spec.DeadlineFor(i)
		start := sim.Duration(i) * f.cfg.Base.StartStagger
		// One arrival handler per app: the body never reads its offset,
		// so every arrival schedules the same func value instead of a
		// fresh closure over the run state.
		arrive := func() {
			now := f.eng0.Now()
			h := f.rt.pick(i)
			if h < 0 {
				// Every host drained or at its admission cap: the
				// router turns the request away itself.
				routerAL[i].Requests++
				routerAL[i].Rejected++
				f.eng0.Obs.Instant(obs.Time(now), obs.TypeRoute, 0,
					"cluster.router", "", pipe.Name, f.cfg.Router.Policy.String(), -1)
				remaining--
				return
			}
			f.rt.outstanding[h]++
			f.routed[h][i]++
			parts[h][i].Requests++
			f.eng0.Obs.Instant(obs.Time(now), obs.TypeRoute, 0,
				"cluster.router", hostNames[h], pipe.Name,
				f.cfg.Router.Policy.String(), int64(f.rt.outstanding[h]))

			retire := func(ret dmxsys.Retired) {
				end := f.eng0.Now()
				al := &parts[h][i]
				al.Retries += ret.Retries
				al.Timeouts += ret.Timeouts
				remaining--
				switch ret.Outcome {
				case traffic.OutcomeRejected:
					al.Rejected++
					return
				case traffic.OutcomeAbandoned:
					al.Abandoned++
					return
				}
				// End-to-end latency and deadline: measured from the
				// cluster arrival, so network time counts against the
				// budget exactly like queueing time.
				lat := obs.Duration(end.Sub(now))
				al.Latency.Add(lat)
				if ret.Outcome == traffic.OutcomeDegraded {
					al.Degraded++
					al.DegradedLat.Add(lat)
				} else {
					al.CleanLat.Add(lat)
				}
				if dl != 0 && end > now.Add(dl) {
					al.Missed++
				}
				if al.Completed == 0 || end < firsts[h][i] {
					firsts[h][i] = end
				}
				if end > lasts[h][i] {
					lasts[h][i] = end
				}
				al.Completed++
			}
			// The router's outstanding slot frees when the response
			// arrives back at the router — on the global lane, where
			// all routing state lives.
			finish := func(ret dmxsys.Retired) {
				f.rt.outstanding[h]--
				retire(ret)
			}
			deliver := func() {
				f.hosts[h].Admit(i, dl, func(ret dmxsys.Retired) {
					if f.net == nil {
						finish(ret)
						return
					}
					// Response leg: completed requests carry the
					// pipeline's output; control-only retirements
					// (rejections, abandons) pay latency alone.
					out := int64(0)
					if ret.Outcome == traffic.OutcomeClean || ret.Outcome == traffic.OutcomeDegraded {
						out = pipe.OutputBytes
					}
					f.net.up(h, out, func() { finish(ret) })
				})
			}
			if f.net == nil {
				deliver()
				return
			}
			f.net.down(h, pipe.InputBytes, deliver)
		}
		for _, off := range spec.Arrivals(i) {
			remaining++
			f.eng0.Schedule(start+off, arrive)
		}
	}
	f.g.Run()
	for h, s := range f.hosts {
		if err := s.Err(); err != nil {
			return traffic.LoadReport{}, fmt.Errorf("cluster: host %d: %w", h, err)
		}
	}
	if remaining != 0 {
		return traffic.LoadReport{}, fmt.Errorf("cluster: %d requests never completed (deadlocked fleet)", remaining)
	}
	rep.Makespan = sim.Duration(f.g.Now())

	// Per-partial rates, then the roll-up. Offered splits across the
	// partials in proportion to the requests each actually received
	// (router rejections included), so the merged row sums back to the
	// spec rate and a one-host fleet reports it exactly.
	for i := 0; i < apps; i++ {
		counts := make([]int, nh+1)
		for h := 0; h < nh; h++ {
			counts[h] = parts[h][i].Requests
		}
		counts[nh] = routerAL[i].Requests
		if spec.Arrival != traffic.ClosedLoop {
			shares := traffic.SplitRate(spec.Rate, counts)
			for h := 0; h < nh; h++ {
				parts[h][i].Offered = shares[h]
			}
			routerAL[i].Offered = shares[nh]
		}
		rows := make([]traffic.AppLoad, 0, nh+1)
		for h := 0; h < nh; h++ {
			al := &parts[h][i]
			if span := lasts[h][i].Sub(firsts[h][i]).Seconds(); al.Completed > 1 && span > 0 {
				al.Achieved = float64(al.Completed-1) / span
			}
			al.Batches, al.BatchedRequests = f.hosts[h].BatchStats(i)
			rows = append(rows, *al)
		}
		rows = append(rows, routerAL[i])
		rep.PerApp[i] = traffic.MergeApps(rows...)
	}
	rep.Finalize()
	return rep, nil
}
