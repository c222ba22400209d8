package dmxsys

import (
	"fmt"
	"strings"

	"dmx/internal/obs"
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// AppReport is one application's measured runtime decomposition — the
// three components of the paper's Fig. 12 breakdown.
type AppReport struct {
	App             string
	KernelTime      sim.Duration
	RestructureTime sim.Duration
	MovementTime    sim.Duration
	Total           sim.Duration

	// Bottleneck is the largest per-request occupancy across the shared
	// resources the request path uses (each accelerator station, DRX
	// unit, fabric link, and host channel), measured during the run. Its
	// inverse is the app's steady-state capacity: requests pipeline
	// through distinct resources, so the slowest single resource gates
	// throughput. BottleneckResource names it.
	Bottleneck         sim.Duration
	BottleneckResource string

	// Fault accounting (all zero on fault-free runs): total re-attempts
	// and watchdog firings across the app's requests, plus how many
	// requests completed degraded (CPU-fallback restructuring) or
	// retired abandoned.
	Retries   int
	Timeouts  int
	Degraded  int
	Abandoned int
}

// StageMax reports the slowest of the app's three logical pipeline
// stages (first kernel, data motion, second kernel approximated by the
// aggregate components), which bounds steady-state throughput (Sec.
// VII-A: "the throughput of an application is determined by the latency
// of the slowest stage").
func (r AppReport) StageMax(nKernels int) sim.Duration {
	if nKernels < 1 {
		nKernels = 1
	}
	perKernel := r.KernelTime / sim.Duration(nKernels)
	motion := r.RestructureTime + r.MovementTime
	nHops := nKernels - 1
	if nHops >= 1 {
		motion /= sim.Duration(nHops)
	}
	if perKernel > motion {
		return perKernel
	}
	return motion
}

// Throughput reports requests/second at steady state for the app: the
// inverse of the measured per-request bottleneck occupancy, which every
// run records.
func (r AppReport) Throughput() float64 { return 1 / r.Bottleneck.Seconds() }

// RunReport aggregates one system run.
type RunReport struct {
	Placement       Placement
	Apps            []AppReport
	Makespan        sim.Duration
	EnergyJ         float64
	EnergyBreakdown map[string]float64
	Switches        int
	DRXCount        int
	// Metrics is the observability aggregate (per-device utilization,
	// per-stage latency histograms, bytes moved), populated when the run
	// was traced (a recorder from Config.Obs or HostOpts.Obs); nil
	// otherwise.
	Metrics *obs.Metrics
}

// MeanTotal reports the arithmetic mean end-to-end latency across apps.
func (r RunReport) MeanTotal() sim.Duration {
	if len(r.Apps) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, a := range r.Apps {
		sum += a.Total
	}
	return sum / sim.Duration(len(r.Apps))
}

// ComponentShares reports the average runtime fractions (kernel,
// restructure, movement) across apps — the Fig. 3(a)/Fig. 12 bars.
func (r RunReport) ComponentShares() (kernel, restructure, movement float64) {
	var k, re, mv, tot float64
	for _, a := range r.Apps {
		k += a.KernelTime.Seconds()
		re += a.RestructureTime.Seconds()
		mv += a.MovementTime.Seconds()
		tot += a.Total.Seconds()
	}
	if tot == 0 {
		return 0, 0, 0
	}
	return k / tot, re / tot, mv / tot
}

// String renders a compact multi-line summary.
func (r RunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: %d apps, makespan %v, %.1f J, %d switches, %d DRX\n",
		r.Placement, len(r.Apps), r.Makespan, r.EnergyJ, r.Switches, r.DRXCount)
	k, re, mv := r.ComponentShares()
	fmt.Fprintf(&b, "  shares: kernel %.1f%% restructure %.1f%% movement %.1f%%",
		100*k, 100*re, 100*mv)
	return b.String()
}

// Run launches one request per app at its stagger instant and simulates
// to completion, returning the aggregated report. Flow errors (invalid
// fabric routes, queue accounting violations) are returned, not
// panicked.
func (s *System) Run() (RunReport, error) {
	if err := s.drive(traffic.Spec{Arrival: traffic.ClosedLoop, Requests: 1}, nil); err != nil {
		return RunReport{}, err
	}
	rep := RunReport{
		Placement: s.cfg.Placement,
		Makespan:  sim.Duration(s.Eng.Now()),
		Switches:  s.nSwitches,
		DRXCount:  s.nDRX,
	}
	for _, a := range s.apps {
		ar := a.rep
		ar.Bottleneck, ar.BottleneckResource = a.bottleneck()
		rep.Apps = append(rep.Apps, ar)
	}
	rep.EnergyJ, rep.EnergyBreakdown = s.energyReport(rep.Makespan)
	if s.rec != nil {
		rep.Metrics = obs.Aggregate(s.rec.Events(), obs.Duration(rep.Makespan))
	}
	return rep, nil
}
