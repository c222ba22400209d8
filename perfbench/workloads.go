package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"

	"dmx"
	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/drx"
	"dmx/internal/drxc"
	"dmx/internal/experiments"
	"dmx/internal/obs"
	"dmx/internal/restructure"
	"dmx/internal/sim"
	"dmx/internal/tensor"
	"dmx/internal/workload"
)

//go:embed specs/*.json
var specFiles embed.FS

// defaultSeed is the seed the recorded output digests belong to.
const defaultSeed = 1

// runConfig is what every workload is built from.
type runConfig struct {
	seed    uint64
	short   bool              // tiny request counts and one figure (tests)
	digests map[string]string // expected SHA-256 per output, keyed "<size>/<workload>/<output>"
}

// size names the digest set of the run's scale.
func (c runConfig) size() string {
	if c.short {
		return "short"
	}
	return "full"
}

// repOut is what one repetition of a workload's timed body did.
type repOut struct {
	ops      int      // operations attempted
	failed   int      // operations that errored or failed a check
	requests int      // requests the repetition simulated (sim_req_per_s)
	problems []string // one line per failed check
}

// fail records one failed check.
func (r *repOut) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// instance is a workload after set-up: the timed body can repeat.
type instance interface {
	// rep runs the timed body once. tr is nil in timed runs. Errors count
	// as failed operations in the result.
	rep(tr *tracer) repOut
	// layers runs the traced-only measurements that are not part of the
	// body (kernel replays, candidate replays, the obs comparison) and
	// adds their counts to m.
	layers(tr *tracer, m map[string]float64, out *repOut) error
}

// workloadDef names a workload and builds it in a cold process.
type workloadDef struct {
	name  string
	setup func(cfg runConfig, tr *tracer) (instance, error)
	// repeatable is false when a second repetition in the same process
	// would hit caches the first one filled.
	repeatable bool
}

var workloads = []workloadDef{
	{"figures", setupFigures, false},
	{"serve", setupServe, true},
	{"fleet", setupFleet, true},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checkDigest compares an output's digest with the recorded one.
func checkDigest(cfg runConfig, out *repOut, key, text string) {
	key = cfg.size() + "/" + key
	got := digestOf(text)
	want, ok := cfg.digests[key]
	switch {
	case !ok:
		out.fail("%s: no recorded digest (got %s)", key, got)
	case got != want:
		out.fail("%s: digest %s, want %s", key, got, want)
	}
}

// ---- figures ----------------------------------------------------------

type renderer interface{ Render() string }

// generators is the paper's figure set: Table I and Figs. 3-19.
var generators = []struct {
	id  string
	run func() (renderer, error)
}{
	{"table1", func() (renderer, error) { return experiments.Table1() }},
	{"fig3", func() (renderer, error) { return experiments.Fig3() }},
	{"fig5", func() (renderer, error) { return experiments.Fig5() }},
	{"fig11", func() (renderer, error) { return experiments.Fig11() }},
	{"fig12", func() (renderer, error) { return experiments.Fig12() }},
	{"fig13", func() (renderer, error) { return experiments.Fig13() }},
	{"fig14", func() (renderer, error) { return experiments.Fig14() }},
	{"fig15", func() (renderer, error) { return experiments.Fig15() }},
	{"fig16", func() (renderer, error) { return experiments.Fig16() }},
	{"fig17", func() (renderer, error) { return experiments.Fig17() }},
	{"fig18", func() (renderer, error) { return experiments.Fig18() }},
	{"fig19", func() (renderer, error) { return experiments.Fig19() }},
}

// shortFigure is the one generator the short mode runs.
const shortFigure = "fig14"

type figures struct {
	cfg runConfig
}

func setupFigures(cfg runConfig, tr *tracer) (instance, error) {
	if tr != nil {
		// The suite the warm-up builds, timed on its own: Warm caches
		// its copy where the benchmark cannot see the split.
		if err := tr.do("workload.suite", func() error {
			_, err := workload.Suite(workload.PaperScale)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := tr.do("experiments.warm", experiments.Warm); err != nil {
		return nil, fmt.Errorf("figures: warm: %w", err)
	}
	return &figures{cfg: cfg}, nil
}

// rep regenerates the figure set; one request is one table or figure.
func (f *figures) rep(tr *tracer) repOut {
	var out repOut
	for i, g := range generators {
		if f.cfg.short && g.id != shortFigure {
			continue
		}
		tr.setOp(i)
		var text string
		err := tr.do("experiments."+g.id, func() error {
			r, err := g.run()
			if err == nil {
				text = r.Render()
			}
			return err
		})
		out.ops++
		out.requests++
		if err != nil {
			out.fail("%s: %v", g.id, err)
			continue
		}
		// Figures take no seed, so their digests hold at every seed.
		checkDigest(f.cfg, &out, "figures/"+g.id, text)
	}
	return out
}

// figureDRX returns the DRX configurations the figure set times kernels
// at: the default (128 lanes) in set-up, the rest of the Fig. 18 lane
// sweep in the body.
func figureDRX() (setup drx.Config, body []drx.Config) {
	def := dmxsys.DefaultConfig(dmxsys.BumpInTheWire).DRX
	for _, lanes := range experiments.LaneSweep {
		if lanes != def.Lanes {
			body = append(body, def.WithLanes(lanes))
		}
	}
	return def, body
}

func (f *figures) layers(tr *tracer, m map[string]float64, out *repOut) error {
	scale := workload.PaperScale
	if f.cfg.short {
		scale = workload.TestScale
	}
	benches, err := workload.Suite(scale)
	if err != nil {
		return err
	}
	pirner, err := workload.PIRWithNER(scale)
	if err != nil {
		return err
	}
	var suite []*dmxsys.Pipeline
	for _, b := range benches {
		suite = append(suite, b.Pipeline)
	}
	// Warm times PIR+NER too, but Fig. 18 sweeps lanes over the Table I
	// suite only.
	setupCfg, bodyCfgs := figureDRX()
	if err := replayDRX(tr, "setup", append(suite, pirner.Pipeline), []drx.Config{setupCfg}); err != nil {
		return err
	}
	return replayDRX(tr, "body", suite, bodyCfgs)
}

// replayDRX compiles and executes every distinct (kernel, DRX config)
// pair of the pipelines on a fresh machine with zero-filled inputs —
// the work the simulator does to time a kernel. Spans nest under a
// parent named "drx.replay_<phase>" so the share the body owns can be
// told apart from the share set-up owns.
func replayDRX(tr *tracer, phase string, pipes []*dmxsys.Pipeline, cfgs []drx.Config) error {
	type pair struct {
		k   *restructure.Kernel
		cfg drx.Config
	}
	type key struct {
		sig string
		cfg drx.Config
	}
	var pairs []pair
	seen := make(map[key]bool)
	for _, cfg := range cfgs {
		for _, p := range pipes {
			for _, h := range p.Hops {
				k := key{h.Kernel.Signature(), cfg}
				if !seen[k] {
					seen[k] = true
					pairs = append(pairs, pair{h.Kernel, cfg})
				}
			}
		}
	}
	return tr.do("drx.replay_"+phase, func() error {
		for i, p := range pairs {
			tr.setOp(i)
			var c *drxc.Compiled
			if err := tr.do("drxc.compile", func() error {
				var err error
				c, err = drxc.Compile(p.k, p.cfg)
				return err
			}); err != nil {
				return fmt.Errorf("compiling %s: %w", p.k.Name, err)
			}
			if err := tr.do("drx.execute", func() error {
				mach, err := drx.New(p.cfg)
				if err != nil {
					return err
				}
				inputs := make(map[string]*tensor.Tensor)
				for _, in := range p.k.Inputs() {
					inputs[in.Name] = tensor.New(in.DType, in.Shape...)
				}
				_, _, err = drxc.Execute(c, mach, inputs)
				return err
			}); err != nil {
				return fmt.Errorf("executing %s: %w", p.k.Name, err)
			}
		}
		return nil
	})
}

// ---- Spec workloads -----------------------------------------------------

// loadSpec reads a workload's Spec document and applies the seed and
// the run's scale.
func loadSpec(name string, cfg runConfig) (dmx.Spec, error) {
	data, err := specFiles.ReadFile("specs/" + name + ".json")
	if err != nil {
		return dmx.Spec{}, err
	}
	s, err := dmx.UnmarshalSpec(data)
	if err != nil {
		return dmx.Spec{}, err
	}
	s.Seed = cfg.seed
	if s.Faults != "" {
		s.FaultSeed = cfg.seed
	}
	if cfg.short {
		s.Scale = "test"
		s.Requests = 40
	}
	return s, nil
}

// resolved is a Spec expanded by Resolve.
type resolved struct {
	spec  dmx.Spec
	fc    dmx.FleetConfig
	ts    dmx.TrafficSpec
	pipes []*dmx.Pipeline
}

// resolveSpec loads, resolves, and warms one Spec: a simulation of the
// same document at a minimal request count fills the DRX timing cache.
func resolveSpec(name string, cfg runConfig, tr *tracer) (*resolved, error) {
	s, err := loadSpec(name, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r := &resolved{spec: s}
	if tr != nil {
		scale := workload.PaperScale
		if cfg.short {
			scale = workload.TestScale
		}
		if err := tr.do("workload.suite", func() error {
			_, err := workload.Suite(scale)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := tr.do("dmx.resolve", func() error {
		r.fc, r.ts, r.pipes, err = s.Resolve()
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: resolve: %w", name, err)
	}
	warm := r.ts
	warm.Requests = 4
	if err := tr.do("setup.warmup", func() error {
		_, err := dmx.SimulateCluster(r.fc, warm, r.pipes...)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	return r, nil
}

// checkReport verifies per-app accounting closes and, at the default
// seed, the report's digest.
func checkReport(cfg runConfig, out *repOut, key string, rep dmx.LoadReport) {
	for _, a := range rep.PerApp {
		if a.Completed+a.Abandoned+a.Rejected != a.Requests {
			out.fail("%s: %s completed %d + abandoned %d + rejected %d != requests %d",
				key, a.App, a.Completed, a.Abandoned, a.Rejected, a.Requests)
		}
		out.requests += a.Requests
	}
	if cfg.seed == defaultSeed {
		checkDigest(cfg, out, key, rep.String())
	}
}

// ---- serve --------------------------------------------------------------

type serve struct {
	cfg    runConfig
	r      *resolved
	traced dmx.LoadReport // the traced repetition's report
	events uint64         // engine events it fired
}

func setupServe(cfg runConfig, tr *tracer) (instance, error) {
	r, err := resolveSpec("serve", cfg, tr)
	if err != nil {
		return nil, err
	}
	return &serve{cfg: cfg, r: r}, nil
}

// rep simulates the Spec once. Timed runs go through SimulateCluster;
// the traced run takes the one-host path layer by layer (NewPlan,
// Instantiate, RunLoad), which is byte-identical by contract — and is
// checked to be, against an untraced run.
func (s *serve) rep(tr *tracer) repOut {
	var out repOut
	out.ops++
	if tr == nil {
		rep, err := dmx.SimulateCluster(s.r.fc, s.r.ts, s.r.pipes...)
		if err != nil {
			out.fail("serve: %v", err)
			return out
		}
		checkReport(s.cfg, &out, "serve/report", rep)
		return out
	}
	rep, events, err := s.layered(tr, s.r.ts, nil)
	if err != nil {
		out.fail("serve: %v", err)
		return out
	}
	s.traced, s.events = rep, events
	checkReport(s.cfg, &out, "serve/report", rep)
	return out
}

// layered runs the one-host serving path under spans, with rec as the
// obs sink (nil = tracing off). It returns the report and the number
// of engine events fired.
func (s *serve) layered(tr *tracer, ts dmx.TrafficSpec, rec *obs.Recorder) (dmx.LoadReport, uint64, error) {
	var (
		plan *dmxsys.Plan
		sys  *dmxsys.System
		rep  dmx.LoadReport
	)
	base := s.r.fc.Base
	if err := tr.do("dmxsys.plan", func() error {
		var err error
		plan, err = dmxsys.NewPlan(base, s.r.pipes)
		return err
	}); err != nil {
		return rep, 0, err
	}
	if err := tr.do("dmxsys.instantiate", func() error {
		var err error
		sys, err = plan.Instantiate(sim.NewEngine(), dmxsys.HostOpts{Obs: rec})
		return err
	}); err != nil {
		return rep, 0, err
	}
	err := tr.do("dmxsys.run", func() error {
		var err error
		rep, err = sys.RunLoad(ts)
		return err
	})
	return rep, sys.Eng.Fired(), err
}

// obsRequestsDivisor shrinks the obs comparison: a recorder keeps every
// event in memory.
const obsRequestsDivisor = 10

func (s *serve) layers(tr *tracer, m map[string]float64, out *repOut) error {
	m["sim.events"] = float64(s.events)
	if s.events > 0 {
		m["sim.ns_per_event"] = tr.totalSeconds("dmxsys.run") * 1e9 / float64(s.events)
	}
	loadCounts(m, s.traced)

	// Traced ≡ untraced: the layered body's report against SimulateCluster.
	out.ops++
	untraced, err := dmx.SimulateCluster(s.r.fc, s.r.ts, s.r.pipes...)
	if err != nil {
		return err
	}
	if s.traced.String() != untraced.String() {
		out.fail("serve: traced report differs from the untraced one")
	}

	// obs on vs off, on a smaller run of the same Spec.
	ts := s.r.ts
	ts.Requests = max(1, ts.Requests/obsRequestsDivisor)
	out.ops += 2
	var off, on dmx.LoadReport
	rec := obs.New()
	if err := tr.do("obs.run_off", func() error {
		off, _, err = s.layered(nil, ts, nil)
		return err
	}); err != nil {
		return err
	}
	if err := tr.do("obs.run_on", func() error {
		on, _, err = s.layered(nil, ts, rec)
		return err
	}); err != nil {
		return err
	}
	if on.String() != off.String() {
		out.fail("serve: report with obs recording differs from the one without")
	}
	m["obs.events"] = float64(rec.Len())
	m["obs.overhead_s"] = tr.totalSeconds("obs.run_on") - tr.totalSeconds("obs.run_off")
	return replayDRX(tr, "setup", s.r.pipes, []drx.Config{s.r.fc.Base.DRX})
}

// ---- fleet --------------------------------------------------------------

type fleet struct {
	cfg    runConfig
	r      *resolved
	traced dmx.LoadReport // the traced repetition's report
	routed int            // requests the router delivered in it
}

func setupFleet(cfg runConfig, tr *tracer) (instance, error) {
	r, err := resolveSpec("fleet", cfg, tr)
	if err != nil {
		return nil, err
	}
	return &fleet{cfg: cfg, r: r}, nil
}

// rep runs the fleet sequentially: the Spec has no shards field. Timed
// runs call SimulateCluster; the traced run splits it at the cluster
// layer boundary.
func (f *fleet) rep(tr *tracer) repOut {
	var out repOut
	out.ops++
	var rep dmx.LoadReport
	var err error
	if tr == nil {
		rep, err = dmx.SimulateCluster(f.r.fc, f.r.ts, f.r.pipes...)
	} else {
		rep, f.routed, err = runFleet(tr, f.r.fc, f.r.ts, f.r.pipes)
		f.traced = rep
	}
	if err != nil {
		out.fail("fleet: %v", err)
		return out
	}
	checkReport(f.cfg, &out, "fleet/report", rep)
	return out
}

// runFleet is SimulateCluster split at its layer boundary.
func runFleet(tr *tracer, fc dmx.FleetConfig, ts dmx.TrafficSpec, pipes []*dmx.Pipeline) (dmx.LoadReport, int, error) {
	var (
		f   *cluster.Fleet
		rep dmx.LoadReport
	)
	if err := tr.do("cluster.new", func() error {
		var err error
		f, err = cluster.New(fc, pipes)
		return err
	}); err != nil {
		return rep, 0, err
	}
	if err := tr.do("cluster.run", func() error {
		var err error
		rep, err = f.Run(ts)
		return err
	}); err != nil {
		return rep, 0, err
	}
	routed := 0
	for _, row := range f.Routed() {
		for _, n := range row {
			routed += n
		}
	}
	return rep, routed, nil
}

func (f *fleet) layers(tr *tracer, m map[string]float64, out *repOut) error {
	m["cluster.routed"] = float64(f.routed)
	loadCounts(m, f.traced)
	return replayDRX(tr, "setup", f.r.pipes, []drx.Config{f.r.fc.Base.DRX})
}

// loadCounts copies a report's batching and fault totals into m.
func loadCounts(m map[string]float64, rep dmx.LoadReport) {
	for _, a := range rep.PerApp {
		m["traffic.batches"] += float64(a.Batches)
		m["traffic.batched_requests"] += float64(a.BatchedRequests)
		m["faults.retries"] += float64(a.Retries)
		m["faults.timeouts"] += float64(a.Timeouts)
	}
}
