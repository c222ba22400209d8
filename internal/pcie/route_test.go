package pcie

import (
	"errors"
	"reflect"
	"testing"

	"dmx/internal/sim"
)

// routeCase is one endpoint kind: how to resolve its route handle, and
// the by-name transfer it must reproduce.
type routeCase struct {
	name    string
	resolve func(f *Fabric) (*Route, error)
	byName  func(f *Fabric, n int64, done func()) error
}

func routeCases() []routeCase {
	pair := func(from, to string) routeCase {
		return routeCase{
			name:    from + "→" + to,
			resolve: func(f *Fabric) (*Route, error) { return f.Route(from, to) },
			byName: func(f *Fabric, n int64, done func()) error {
				return f.Transfer(from, to, n, done)
			},
		}
	}
	return []routeCase{
		pair(Root, "a0"), // root → device
		pair("b1", Root), // device → root
		pair("a0", "a1"), // same-switch P2P
		pair("a0", "b0"), // cross-switch
		{
			// The by-name side resolves the up or down route afresh for
			// every transfer.
			name:    "up a1",
			resolve: func(f *Fabric) (*Route, error) { return f.UpRoute("a1") },
			byName:  func(f *Fabric, n int64, done func()) error { return transferUp(f, "a1", n, done) },
		},
		{
			name:    "down b1",
			resolve: func(f *Fabric) (*Route, error) { return f.DownRoute("b1") },
			byName:  func(f *Fabric, n int64, done func()) error { return transferDown(f, "b1", n, done) },
		},
	}
}

// staggered issues three overlapping transfers of different sizes
// through start, returning their completion times and the fabric's
// per-link accounting.
func staggered(t *testing.T, faults LinkFaults, start func(f *Fabric, n int64, done func()) error) ([]sim.Time, []LinkStats) {
	t.Helper()
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	f.SetFaults(faults)
	done := make([]sim.Time, 3)
	for i := range done {
		i := i
		eng.Schedule(sim.Duration(i)*sim.Microsecond, func() {
			if err := start(f, int64(i+1)<<20, func() { done[i] = eng.Now() }); err != nil {
				t.Fatal(err)
			}
		})
	}
	eng.Run()
	return done, f.Stats()
}

func TestTransferRouteMatchesTransfer(t *testing.T) {
	for _, faults := range []LinkFaults{nil, stubFaults{degraded: map[string]float64{"sw0.up": 0.5, "a1.up": 0.25}}} {
		for _, tc := range routeCases() {
			wantDone, wantStats := staggered(t, faults, tc.byName)
			// One handle, resolved on first use and reused for every
			// transfer after it.
			var rt *Route
			gotDone, gotStats := staggered(t, faults, func(f *Fabric, n int64, done func()) error {
				if rt == nil {
					var err error
					if rt, err = tc.resolve(f); err != nil {
						return err
					}
				}
				return f.TransferRoute(rt, n, done)
			})
			if !reflect.DeepEqual(gotDone, wantDone) {
				t.Errorf("%s (faults %v): route completions %v, by name %v", tc.name, faults != nil, gotDone, wantDone)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("%s (faults %v): route link stats %v, by name %v", tc.name, faults != nil, gotStats, wantStats)
			}
		}
	}
}

// stubFaults is a static fault hook: named links are down, or keep the
// given fraction of their bandwidth.
type stubFaults struct {
	down     map[string]bool
	degraded map[string]float64
}

func (s stubFaults) LinkState(name string, _ sim.Time) (bool, float64) {
	if s.down[name] {
		return true, 0
	}
	if f, ok := s.degraded[name]; ok {
		return false, f
	}
	return false, 1
}

func TestTransferRouteUnderFaults(t *testing.T) {
	const n = 1 << 20
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	f.SetFaults(stubFaults{down: map[string]bool{"sw0.up": true}})
	rt, err := f.Route("a0", Root)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	if err := f.TransferRoute(rt, n, func() { called = true }); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("transfer over a down link: err %v, want ErrLinkDown", err)
	}
	eng.Run()
	if called {
		t.Error("rejected transfer still completed")
	}
	if got := f.TotalBytes(); got != 0 {
		t.Errorf("rejected transfer moved %d bytes", got)
	}

	// A degraded link stretches its own serialization by 1/factor and
	// counts the retransmitted bytes.
	timeUp := func(faults LinkFaults) (sim.Time, int64) {
		eng := sim.NewEngine()
		f := buildFabric(t, eng)
		f.SetFaults(faults)
		rt, err := f.UpRoute("a0")
		if err != nil {
			t.Fatal(err)
		}
		var at sim.Time
		if err := f.TransferRoute(rt, n, func() { at = eng.Now() }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return at, f.TotalBytes()
	}
	healthy, healthyBytes := timeUp(nil)
	slow, slowBytes := timeUp(stubFaults{degraded: map[string]float64{"a0.up": 0.5}})
	if healthyBytes != n || slowBytes != 2*n {
		t.Errorf("link bytes healthy %d degraded %d, want %d and %d", healthyBytes, slowBytes, n, 2*n)
	}
	serial := healthy.Sub(0) - SwitchPortLatency
	if want := sim.Time(0).Add(2*serial + SwitchPortLatency); slow < want-1 || slow > want+1 {
		t.Errorf("degraded transfer done at %v, want %v (healthy %v)", slow, want, healthy)
	}
}

func TestRouteLinksAreCopies(t *testing.T) {
	eng := sim.NewEngine()
	f := buildFabric(t, eng)
	rt, err := f.Route("a0", "b0")
	if err != nil {
		t.Fatal(err)
	}
	want := rt.Links()
	if len(want) != 4 || want[0].Name != "a0.up" || want[3].Name != "b0.down" {
		t.Fatalf("cross-switch path %v", want)
	}
	links := rt.Links()
	for i := range links {
		links[i] = LinkInfo{Name: "mutated", Bandwidth: 1}
	}
	if again := rt.Links(); !reflect.DeepEqual(again, want) {
		t.Errorf("mutating Route.Links reached the route: %v", again)
	}
	// The route still transfers at the real link rates.
	var viaRoute, viaName sim.Time
	if err := f.TransferRoute(rt, 1<<20, func() { viaRoute = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	eng2 := sim.NewEngine()
	f2 := buildFabric(t, eng2)
	if err := f2.Transfer("a0", "b0", 1<<20, func() { viaName = eng2.Now() }); err != nil {
		t.Fatal(err)
	}
	eng2.Run()
	if viaRoute != viaName {
		t.Errorf("route transfer done at %v after mutation, by name %v", viaRoute, viaName)
	}
}

func TestRouteErrors(t *testing.T) {
	f := buildFabric(t, sim.NewEngine())
	for _, c := range []struct {
		name string
		err  error
	}{
		{"self", func() error { _, err := f.Route("a0", "a0"); return err }()},
		{"root to itself", func() error { _, err := f.Route(Root, Root); return err }()},
		{"unknown source", func() error { _, err := f.Route("ghost", "a0"); return err }()},
		{"unknown destination", func() error { _, err := f.Route("a0", "ghost"); return err }()},
		{"root to unknown", func() error { _, err := f.Route(Root, "ghost"); return err }()},
		{"unknown to root", func() error { _, err := f.Route("ghost", Root); return err }()},
		{"up unknown", func() error { _, err := f.UpRoute("ghost"); return err }()},
		{"down unknown", func() error { _, err := f.DownRoute("ghost"); return err }()},
		{"up root", func() error { _, err := f.UpRoute(Root); return err }()},
	} {
		if c.err == nil {
			t.Errorf("%s: route accepted", c.name)
		} else if errors.Is(c.err, ErrLinkDown) {
			t.Errorf("%s: structural error reported as a down link: %v", c.name, c.err)
		}
	}
}
