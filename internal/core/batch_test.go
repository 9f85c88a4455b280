package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"batlife/internal/ctmc"
)

// checkBatchMatchesSolo solves grids as one LifetimeCDFBatchOpts call
// and each grid on its own with LifetimeCDFOpts, and asserts the
// union-grid contract: every curve bit for bit, the solo Iterations and
// Fox–Glynn window per grid, and summed SpMVs equal to the largest solo
// count (the products of the one shared sweep). It returns the solo
// results.
func checkBatchMatchesSolo(t *testing.T, e *Expanded, grids [][]float64, so SolveOptions) []*Result {
	t.Helper()
	batch, err := e.LifetimeCDFBatchOpts(grids, so)
	if err != nil {
		t.Fatalf("LifetimeCDFBatchOpts: %v", err)
	}
	if len(batch) != len(grids) {
		t.Fatalf("%d results for %d grids", len(batch), len(grids))
	}
	solos := make([]*Result, len(grids))
	spmvs, maxSolo := 0, 0
	for k, grid := range grids {
		solo, err := e.LifetimeCDFOpts(grid, so)
		if err != nil {
			t.Fatalf("grid %d solo: %v", k, err)
		}
		solos[k] = solo
		got := batch[k]
		if len(got.Times) != len(grid) || len(got.EmptyProb) != len(grid) {
			t.Fatalf("grid %d: %d times, %d values for %d points", k, len(got.Times), len(got.EmptyProb), len(grid))
		}
		for i := range grid {
			//numlint:ignore floatcmp the union-grid contract is bit identity
			if got.Times[i] != grid[i] {
				t.Errorf("grid %d: Times[%d] = %v, want %v", k, i, got.Times[i], grid[i])
			}
			if math.Float64bits(got.EmptyProb[i]) != math.Float64bits(solo.EmptyProb[i]) {
				t.Errorf("grid %d: EmptyProb[%d] = %v, want %v (bit-identical)", k, i, got.EmptyProb[i], solo.EmptyProb[i])
			}
		}
		if got.Iterations != solo.Iterations {
			t.Errorf("grid %d: Iterations = %d, want solo %d", k, got.Iterations, solo.Iterations)
		}
		if got.FoxGlynnLeft != solo.FoxGlynnLeft || got.FoxGlynnRight != solo.FoxGlynnRight {
			t.Errorf("grid %d: window [%d,%d], want solo [%d,%d]",
				k, got.FoxGlynnLeft, got.FoxGlynnRight, solo.FoxGlynnLeft, solo.FoxGlynnRight)
		}
		//numlint:ignore floatcmp both solves share one operator and its q
		if got.Rate != solo.Rate || got.States != solo.States || got.NNZ != solo.NNZ {
			t.Errorf("grid %d: rate/states/nnz = %v/%d/%d, want %v/%d/%d",
				k, got.Rate, got.States, got.NNZ, solo.Rate, solo.States, solo.NNZ)
		}
		spmvs += got.SpMVs
		maxSolo = max(maxSolo, solo.SpMVs)
	}
	if spmvs != maxSolo {
		t.Errorf("summed SpMVs = %d, want %d (the longest grid's solo count)", spmvs, maxSolo)
	}
	return solos
}

// TestLifetimeCDFBatchMatchesSolo covers grids of different horizons
// with overlapping and duplicate time points, duplicate whole grids
// (the longest among them, whose shared products must be charged only
// once), and a grid with a repeated point.
func TestLifetimeCDFBatchMatchesSolo(t *testing.T) {
	e, err := Build(onOffModel(t, 0.625, 4.5e-5), 300, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkBatchMatchesSolo(t, e, [][]float64{
		{5000, 9000},
		{10000, 15000, 20000},
		{6000, 7000, 8000, 9000},
		{5000, 9000},
		{10000, 15000, 20000},
		{0, 9000, 9000},
	}, SolveOptions{})
}

// TestLifetimeCDFBatchSingleGrid: a one-grid call is the solo solve.
func TestLifetimeCDFBatchSingleGrid(t *testing.T) {
	e, err := Build(onOffModel(t, 1, 0), 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkBatchMatchesSolo(t, e, [][]float64{{3000, 8000, 12000}}, SolveOptions{})
}

// TestLifetimeCDFBatchSteadyStateBeforeHorizon: on a constant load every
// path is absorbed long before the last horizon, so steady-state
// detection stops the shared sweep inside the longest grid's window
// while shorter grids end before it fires. Both kinds must still match
// their solo solves.
func TestLifetimeCDFBatchSteadyStateBeforeHorizon(t *testing.T) {
	e, err := Build(alwaysOnModel(t, 1000, 1), 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solos := checkBatchMatchesSolo(t, e, [][]float64{
		{10, 400},
		{500, 2000},
		{20, 600, 10000},
	}, SolveOptions{})
	if solos[0].Iterations != solos[0].FoxGlynnRight {
		t.Errorf("short grid: %d iterations of window %d; want the full window", solos[0].Iterations, solos[0].FoxGlynnRight)
	}
	if solos[2].Iterations >= solos[2].FoxGlynnRight {
		t.Errorf("long grid: %d iterations of window %d; want steady-state detection to stop early",
			solos[2].Iterations, solos[2].FoxGlynnRight)
	}
}

// TestLifetimeCDFBatchZeroGenerator: a chain without transitions freezes
// at the full battery, as on the solo path.
func TestLifetimeCDFBatchZeroGenerator(t *testing.T) {
	e, err := Build(alwaysOnModel(t, 100, 0), 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solos := checkBatchMatchesSolo(t, e, [][]float64{{0, 5}, {10}}, SolveOptions{})
	if solos[1].Rate != 0 || solos[1].EmptyProb[0] != 0 {
		t.Errorf("frozen chain: rate %v, F(10) = %v; want 0, 0", solos[1].Rate, solos[1].EmptyProb[0])
	}
}

// TestLifetimeCDFBatchErrors walks the rejection surface: malformed
// grids are ErrBadInput, a union past MaxIterations fails as a whole
// with the iteration budget, and a cancelled context aborts the sweep.
func TestLifetimeCDFBatchErrors(t *testing.T) {
	e, err := Build(onOffModel(t, 1, 0), 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		grids [][]float64
	}{
		{"no grids", nil},
		{"empty grid", [][]float64{{1000}, {}}},
		{"descending grid", [][]float64{{1000}, {2000, 1000}}},
		{"negative time", [][]float64{{-1, 1000}}},
		{"NaN time", [][]float64{{1000}, {math.NaN()}}},
		{"infinite time", [][]float64{{1000, math.Inf(1)}}},
	} {
		if _, err := e.LifetimeCDFBatchOpts(tc.grids, SolveOptions{}); !errors.Is(err, ctmc.ErrBadInput) {
			t.Errorf("%s: err = %v, want ErrBadInput", tc.name, err)
		}
	}

	short, err := e.LifetimeCDFOpts([]float64{1000}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.LifetimeCDFBatchOpts([][]float64{{1000}, {20000}},
		SolveOptions{MaxIterations: short.FoxGlynnRight})
	if !errors.Is(err, ctmc.ErrIterationBudget) {
		t.Errorf("union past MaxIterations: err = %v, want ErrIterationBudget", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.LifetimeCDFBatchOpts([][]float64{{1000}, {2000}}, SolveOptions{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: err = %v, want context.Canceled", err)
	}
}
