package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"batlife/internal/ctmc"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
)

// harvestingModel builds a three-state workload: active (drain),
// harvest (charge at the given negative current) and off (nothing).
func harvestingModel(t *testing.T, harvestCurrent float64) mrm.KiBaMRM {
	t.Helper()
	var b ctmc.Builder
	b.Transition("active", "harvest", 0.5)
	b.Transition("harvest", "active", 0.5)
	chain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return mrm.KiBaMRM{
		Workload:      chain,
		Currents:      []float64{0.96, harvestCurrent},
		Initial:       chain.PointDistribution(chain.Index("active")),
		Battery:       kibam.Params{Capacity: 7200, C: 1, K: 0},
		AllowCharging: true,
	}
}

func TestChargingRequiresFlag(t *testing.T) {
	m := harvestingModel(t, -0.2)
	m.AllowCharging = false
	if _, err := Build(m, 100, Options{}); !errors.Is(err, mrm.ErrBadModel) {
		t.Errorf("negative current without flag: err = %v", err)
	}
}

func TestChargingExtendsLifetime(t *testing.T) {
	times := []float64{15000, 22000}
	noHarvest := harvestingModel(t, 0)
	noHarvest.AllowCharging = false
	withHarvest := harvestingModel(t, -0.4)

	en, err := Build(noHarvest, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := en.LifetimeCDF(times)
	if err != nil {
		t.Fatal(err)
	}
	eh, err := Build(withHarvest, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rh, err := eh.LifetimeCDF(times)
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		if rh.EmptyProb[k] >= rn.EmptyProb[k] {
			t.Errorf("t=%v: harvesting Pr[empty] %v not below idle-recovery %v",
				times[k], rh.EmptyProb[k], rn.EmptyProb[k])
		}
	}
}

func TestChargingMonotoneInHarvestRate(t *testing.T) {
	probe := []float64{18000}
	prev := 1.1
	for _, harvest := range []float64{0, -0.2, -0.5, -0.9} {
		m := harvestingModel(t, harvest)
		e, err := Build(m, 100, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.LifetimeCDF(probe)
		if err != nil {
			t.Fatal(err)
		}
		if res.EmptyProb[0] >= prev {
			t.Errorf("harvest=%v: Pr[empty] %v did not decrease (prev %v)", harvest, res.EmptyProb[0], prev)
		}
		prev = res.EmptyProb[0]
	}
}

func TestChargingGeneratorStillValid(t *testing.T) {
	e, err := Build(harvestingModel(t, -0.3), 400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := e.Generator()
	for r := 0; r < g.Rows(); r++ {
		if s := rowSum(g, r); math.Abs(s) > 1e-9 {
			t.Fatalf("row %d sums to %v", r, s)
		}
	}
	// The top level must absorb surplus: the charging state at j1 =
	// n1-1 has no upward transition.
	top := e.index(1, e.n1-1, 0)
	g.Row(top, func(col int, v float64) {
		if col != top && v > 0 {
			// Only workload transitions allowed from the full level.
			if col != e.index(0, e.n1-1, 0) {
				t.Fatalf("unexpected transition from full level to %d", col)
			}
		}
	})
}

func TestChargingSurvivalWithStrongHarvest(t *testing.T) {
	// Net-positive harvesting (spends half the time charging faster
	// than it drains): over a moderate horizon the battery should very
	// likely survive.
	m := harvestingModel(t, -2.0)
	e, err := Build(m, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.LifetimeCDF([]float64{20000})
	if err != nil {
		t.Fatal(err)
	}
	if res.EmptyProb[0] > 0.05 {
		t.Errorf("strong harvesting: Pr[empty at 20000] = %v", res.EmptyProb[0])
	}
	// With net-positive harvesting the mean absorption time is
	// astronomically large (exponential in the level count), so the
	// repeated sweeps of the mean solve creep upward for their whole
	// budget. A deadline must stop them.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := e.MeanLifetime(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("strong harvesting mean under a 50 ms deadline: err = %v, want DeadlineExceeded", err)
	}
}

// twoWellChargingModel alternates a 0.96 A drain with a 0.3 A charge on
// the two-well battery of Fig. 8.
func twoWellChargingModel(t *testing.T) mrm.KiBaMRM {
	t.Helper()
	var b ctmc.Builder
	b.Transition("drain", "charge", 1)
	b.Transition("charge", "drain", 1)
	chain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return mrm.KiBaMRM{
		Workload:      chain,
		Currents:      []float64{0.96, -0.3},
		Initial:       chain.PointDistribution(0),
		Battery:       kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5},
		AllowCharging: true,
	}
}

func TestChargingTwoWellGrid(t *testing.T) {
	// Charging must compose with the two-well battery: bound-charge
	// transfer keeps flowing while the harvest state refills y1.
	e, err := Build(twoWellChargingModel(t), 300, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.LifetimeCDF([]float64{10000, 20000, 40000})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for k, p := range res.EmptyProb {
		if p < prev-1e-9 || p > 1 {
			t.Fatalf("CDF invalid at %d: %v", k, res.EmptyProb)
		}
		prev = p
	}
}
