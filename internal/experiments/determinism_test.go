package experiments

import (
	"fmt"
	"testing"

	"dmx/internal/sweep"
)

// resetGrid empties the shared grid of homogeneous runs, so the next
// figure simulates every cell it reads afresh. A determinism test that
// regenerates a figure must reset before each regeneration: a grid
// read would compare a report with itself.
func resetGrid() {
	grid.mu.Lock()
	clear(grid.cells)
	grid.mu.Unlock()
}

func gridCells() int {
	grid.mu.Lock()
	defer grid.mu.Unlock()
	return len(grid.cells)
}

// TestFig14DeterministicAcrossWorkerCounts is the parallel-harness
// regression gate: the placement study rendered with the sweep pool
// forced sequential must be byte-identical to renderings produced with
// a concurrent pool, and two concurrent runs must agree with each
// other. Fig14 exercises the full path — suite construction, nbJobs
// enumeration, per-cell simulation fan-out and the ordered fold.
func TestFig14DeterministicAcrossWorkerCounts(t *testing.T) {
	prev := sweep.SetWorkers(1)
	defer sweep.SetWorkers(prev)

	resetGrid()
	seqRes, err := Fig14()
	if err != nil {
		t.Fatalf("sequential Fig14: %v", err)
	}
	seq := seqRes.Render()

	sweep.SetWorkers(4)
	resetGrid()
	par1Res, err := Fig14()
	if err != nil {
		t.Fatalf("parallel Fig14 (run 1): %v", err)
	}
	resetGrid()
	par2Res, err := Fig14()
	if err != nil {
		t.Fatalf("parallel Fig14 (run 2): %v", err)
	}
	par1, par2 := par1Res.Render(), par2Res.Render()

	if par1 != seq {
		t.Errorf("parallel rendering differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par1)
	}
	if par2 != par1 {
		t.Errorf("two parallel runs disagree:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", par1, par2)
	}
}

// TestFig17DeterministicAcrossWorkerCounts covers the collectives
// sweep, whose jobs carry no shared benchmark state at all.
func TestFig17DeterministicAcrossWorkerCounts(t *testing.T) {
	prev := sweep.SetWorkers(1)
	defer sweep.SetWorkers(prev)

	seqRes, err := Fig17()
	if err != nil {
		t.Fatalf("sequential Fig17: %v", err)
	}
	sweep.SetWorkers(4)
	parRes, err := Fig17()
	if err != nil {
		t.Fatalf("parallel Fig17: %v", err)
	}
	if seq, par := seqRes.Render(), parRes.Render(); par != seq {
		t.Errorf("parallel rendering differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestPlacementGridMatchesFresh checks the grid Figs. 3 and 11-15
// share. Rendered concurrently in registry order on one grid, each
// figure must be byte-identical to its render alone on a fresh grid,
// and the six together must fill exactly the 120 distinct cells
// (6 placements x 4 concurrencies x 5 apps): a figure that bypassed
// the grid, or a key split by a copied Benchmark, would miss the count.
// Four workers let the race detector see concurrent figures share
// cells.
func TestPlacementGridMatchesFresh(t *testing.T) {
	prev := sweep.SetWorkers(4)
	defer sweep.SetWorkers(prev)

	figs := []struct {
		id  string
		run func() (interface{ Render() string }, error)
	}{
		{"fig3", func() (interface{ Render() string }, error) { return Fig3() }},
		{"fig11", func() (interface{ Render() string }, error) { return Fig11() }},
		{"fig12", func() (interface{ Render() string }, error) { return Fig12() }},
		{"fig13", func() (interface{ Render() string }, error) { return Fig13() }},
		{"fig14", func() (interface{ Render() string }, error) { return Fig14() }},
		{"fig15", func() (interface{ Render() string }, error) { return Fig15() }},
	}
	render := func(i int) (string, error) {
		res, err := figs[i].run()
		if err != nil {
			return "", fmt.Errorf("%s: %w", figs[i].id, err)
		}
		return res.Render(), nil
	}

	resetGrid()
	shared := make([]string, len(figs))
	if err := sweep.Each(len(figs), func(i int) (err error) {
		shared[i], err = render(i)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := gridCells(), 6*len(Concurrencies)*5; got != want {
		t.Errorf("grid holds %d cells after the six figures, want %d", got, want)
	}

	for i := len(figs) - 1; i >= 0; i-- {
		resetGrid()
		fresh, err := render(i)
		if err != nil {
			t.Fatal(err)
		}
		if fresh != shared[i] {
			t.Errorf("%s on a fresh grid differs from its shared-grid render:\n--- shared ---\n%s\n--- fresh ---\n%s",
				figs[i].id, shared[i], fresh)
		}
	}
}
