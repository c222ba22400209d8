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
	// Base is the shared host configuration. Its Obs recorder becomes
	// the whole fleet's event sink.
	Base dmxsys.Config
	// PerHost, when non-empty, overrides Base per replica (length must
	// equal Hosts) — a heterogeneous fleet mixing placements or DRX
	// geometries. The event sink still comes from Base.
	PerHost []dmxsys.Config
	// Net models the inter-host network; the zero value disables it.
	Net NetConfig
	// Router parameterizes load balancing, per-host admission, and
	// fault-aware draining; the zero value is score routing, uncapped.
	Router RouterConfig
}

// Fleet is N instantiated replicas of a serving plan on one
// deterministic engine, joined by a network fabric and fronted by the
// cluster router. Like a System, a Fleet is single-shot: Run consumes
// the engine.
type Fleet struct {
	cfg    FleetConfig
	eng    *sim.Engine
	plans  []*dmxsys.Plan
	hosts  []*dmxsys.System
	net    *netFabric
	rt     *router
	routed [][]int // [host][app] requests delivered to the host
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
	if len(cfg.PerHost) != 0 && len(cfg.PerHost) != cfg.Hosts {
		return nil, fmt.Errorf("cluster: PerHost has %d entries for %d hosts", len(cfg.PerHost), cfg.Hosts)
	}
	for h := range cfg.PerHost {
		if cfg.PerHost[h].Obs != nil {
			return nil, fmt.Errorf("cluster: set the trace sink on Base, not PerHost[%d]", h)
		}
	}
	f := &Fleet{cfg: cfg, eng: sim.NewEngine()}
	var shared *dmxsys.Plan
	for h := 0; h < cfg.Hosts; h++ {
		var (
			p   *dmxsys.Plan
			err error
		)
		if len(cfg.PerHost) == 0 {
			// Homogeneous replicas share one immutable plan: layout,
			// warmed DRX timings, scheduling tables.
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
		sys, err := p.Instantiate(f.eng, dmxsys.HostOpts{Prefix: pfx, Obs: cfg.Base.Obs})
		if err != nil {
			return nil, fmt.Errorf("cluster: host %d: %w", h, err)
		}
		f.plans = append(f.plans, p)
		f.hosts = append(f.hosts, sys)
	}
	apps := f.plans[0].Apps()
	caps := make([][]float64, cfg.Hosts)
	f.routed = make([][]int, cfg.Hosts)
	// Only score routing across several hosts reads the capacity bounds,
	// so only it pays for deriving them: once per distinct plan (a
	// homogeneous fleet's hosts share one). Other routers see zeros.
	derive := cfg.Router.Policy == PolicyScore && cfg.Hosts > 1
	var bounds []dmxsys.Capacity
	for h := range caps {
		caps[h] = make([]float64, apps)
		f.routed[h] = make([]int, apps)
		if !derive {
			continue
		}
		if h == 0 || f.plans[h] != f.plans[h-1] {
			var err error
			if bounds, err = f.plans[h].Capacities(); err != nil {
				return nil, fmt.Errorf("cluster: host %d: capacity: %w", h, err)
			}
		}
		for a, c := range bounds {
			caps[h][a] = c.PerSecond
		}
	}
	f.rt = newRouter(cfg.Router, caps, apps)
	f.net = newNetFabric(cfg.Net, f.eng, cfg.Hosts)
	if cfg.Router.DrainIncidents > 0 {
		// Fault-aware draining is push-based: each fresh incident streams
		// a notification to the router over the fabric's one-way latency
		// instead of the router polling host state at every arrival. The
		// router folds the host's running total into the drain window
		// when the notification lands. Installed only when draining is
		// configured, so other fleets keep the polling-free event stream
		// they always had.
		lat := cfg.Net.Latency
		for h := range f.hosts {
			h := h
			total := 0
			f.hosts[h].OnFaultIncident(func() {
				total++
				n := total
				f.eng.Schedule(lat, func() {
					f.rt.observe(h, n, f.eng.Now())
				})
			})
		}
	}
	return f, nil
}

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
// request retires into exactly one tally: its host's, or the router's
// when the router turned it away. Spec.Report merges them, so per-app
// tail-latency accounting survives the roll-up: latency histograms
// merge bucket-for-bucket, quantiles are re-derived from the merged
// histograms, and availability spans the whole fleet. With one host and
// the zero-valued network and router configs the report and the trace
// are byte-identical to System.RunLoad's.
func (f *Fleet) Run(spec traffic.Spec) (traffic.LoadReport, error) {
	if err := spec.Validate(); err != nil {
		return traffic.LoadReport{}, err
	}
	nh := len(f.hosts)
	apps := f.plans[0].Apps()
	r := &fleetRun{
		f:         f,
		tallies:   make([]*traffic.Tally, nh+1),
		hostNames: make([]string, nh),
		pipes:     make([]*dmxsys.Pipeline, apps),
		deadlines: make([]sim.Duration, apps),
	}
	names := make([]string, apps)
	for i := 0; i < apps; i++ {
		r.pipes[i] = f.plans[0].Pipeline(i)
		r.deadlines[i] = spec.DeadlineFor(i)
		names[i] = r.pipes[i].Name
	}
	for h := range r.tallies {
		r.tallies[h] = traffic.NewTally(names)
	}
	for h := 0; h < nh; h++ {
		// Router trace peers, formatted once rather than per routed
		// request.
		r.hostNames[h] = fmt.Sprintf("h%d", h)
	}
	// Arrivals are fed on demand, one pending per app, under the seqs
	// an up-front schedule loop would have used (traffic.Spec.Feed).
	r.remaining = spec.Requests * apps
	for i := 0; i < apps; i++ {
		i := i
		start := f.eng.Now().Add(sim.Duration(i) * dmxsys.StartStagger)
		spec.Feed(f.eng, i, start, func() { r.arrive(i) })
	}
	f.eng.Run()
	for h, s := range f.hosts {
		if err := s.Err(); err != nil {
			return traffic.LoadReport{}, fmt.Errorf("cluster: host %d: %w", h, err)
		}
		s.TallyBatches(r.tallies[h])
	}
	if r.remaining != 0 {
		return traffic.LoadReport{}, fmt.Errorf("cluster: %d requests never completed (deadlocked fleet)", r.remaining)
	}
	return spec.Report(sim.Duration(f.eng.Now()), r.tallies...), nil
}

// fleetRun is one Run's state: the tallies the arrivals retire into and
// the pool of arrival records. It lives and dies with Run, so fleets
// that sweep runs concurrently never share a pool.
type fleetRun struct {
	f *Fleet
	// tallies holds one tally per host, then the router's own
	// rejections last.
	tallies   []*traffic.Tally
	hostNames []string
	pipes     []*dmxsys.Pipeline
	deadlines []sim.Duration
	remaining int
	pool      []*arrival
}

// arrival is one routed request's record from the router to the host
// and back: where it went, when it arrived and what budget it carries,
// and how it retired. Records are pooled per run and their callbacks
// bound once per record, so routing a request allocates nothing.
type arrival struct {
	r        *fleetRun
	host     int
	app      int
	at       sim.Time
	deadline sim.Duration
	ret      traffic.Retired

	deliverFn func()
	retiredFn func(traffic.Retired)
	finishFn  func()
}

// arrive routes one arrival of app i: to a host, or turned away by the
// router itself.
func (r *fleetRun) arrive(i int) {
	f := r.f
	now := f.eng.Now()
	pipe := r.pipes[i]
	h := f.rt.pick(i)
	if h < 0 {
		// Every host drained or at its admission cap: the router turns
		// the request away itself.
		r.tallies[len(f.hosts)].Retire(i, traffic.Retired{Outcome: traffic.OutcomeRejected}, now, 0)
		f.eng.Obs.Instant(obs.Time(now), obs.TypeRoute, 0,
			"cluster.router", "", pipe.Name, f.cfg.Router.Policy.String(), -1)
		r.remaining--
		return
	}
	f.rt.outstanding[h]++
	f.routed[h][i]++
	if len(f.hosts) > 1 {
		// A one-host router has no choice to record, and without the
		// instant a one-host fleet's trace is RunLoad's byte for byte.
		f.eng.Obs.Instant(obs.Time(now), obs.TypeRoute, 0,
			"cluster.router", r.hostNames[h], pipe.Name,
			f.cfg.Router.Policy.String(), int64(f.rt.outstanding[h]))
	}
	var a *arrival
	if n := len(r.pool); n > 0 {
		a = r.pool[n-1]
		r.pool = r.pool[:n-1]
	} else {
		a = &arrival{r: r}
		a.deliverFn, a.retiredFn, a.finishFn = a.deliver, a.retired, a.finish
	}
	a.host, a.app, a.at, a.deadline = h, i, now, r.deadlines[i]
	if f.net == nil {
		a.deliver()
		return
	}
	f.net.down(h, pipe.InputBytes, a.deliverFn)
}

// deliver hands the request to its host.
func (a *arrival) deliver() {
	a.r.f.hosts[a.host].Admit(a.app, a.deadline, a.retiredFn)
}

// retired is the host's retirement callback: the response leg back to
// the router, when the fleet has a network.
func (a *arrival) retired(ret traffic.Retired) {
	a.ret = ret
	f := a.r.f
	if f.net == nil {
		a.finish()
		return
	}
	// Response leg: completed requests carry the pipeline's output;
	// control-only retirements (rejections, abandons) pay latency alone.
	out := int64(0)
	if ret.Outcome == traffic.OutcomeClean || ret.Outcome == traffic.OutcomeDegraded {
		out = a.r.pipes[a.app].OutputBytes
	}
	f.net.up(a.host, out, a.finishFn)
}

// finish runs when the response arrives back at the router: the
// router's outstanding slot frees, the request lands in its host's
// tally, and the record returns to the pool. Latency and the deadline
// run from the cluster arrival, so network time counts against the
// budget exactly like queueing time.
func (a *arrival) finish() {
	r, h := a.r, a.host
	r.f.rt.outstanding[h]--
	r.remaining--
	a.ret.Start = a.at
	r.tallies[h].Retire(a.app, a.ret, r.f.eng.Now(), a.deadline)
	r.pool = append(r.pool, a)
}
