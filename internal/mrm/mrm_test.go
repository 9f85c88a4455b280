package mrm

import (
	"errors"
	"math"
	"testing"

	"batlife/internal/ctmc"
	"batlife/internal/kibam"
)

func twoStateChain(t *testing.T) *ctmc.Chain {
	t.Helper()
	var b ctmc.Builder
	b.Transition("on", "off", 2)
	b.Transition("off", "on", 2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConstantRewardValidate(t *testing.T) {
	chain := twoStateChain(t)
	good := ConstantReward{Chain: chain, Rates: []float64{1, 0}, Initial: []float64{1, 0}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	cases := []ConstantReward{
		{Chain: nil, Rates: []float64{1}, Initial: []float64{1}},
		{Chain: chain, Rates: []float64{1}, Initial: []float64{1, 0}},
		{Chain: chain, Rates: []float64{1, math.NaN()}, Initial: []float64{1, 0}},
		{Chain: chain, Rates: []float64{1, 0}, Initial: []float64{1}},
		{Chain: chain, Rates: []float64{1, 0}, Initial: []float64{0.7, 0.7}},
		{Chain: chain, Rates: []float64{1, 0}, Initial: []float64{1.5, -0.5}},
	}
	for i, m := range cases {
		if err := m.Validate(); !errors.Is(err, ErrBadModel) {
			t.Errorf("case %d: err = %v, want ErrBadModel", i, err)
		}
	}
}

func validKiBaMRM(t *testing.T) KiBaMRM {
	t.Helper()
	chain := twoStateChain(t)
	return KiBaMRM{
		Workload: chain,
		Currents: []float64{0.96, 0},
		Initial:  []float64{1, 0},
		Battery:  kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5},
	}
}

func TestKiBaMRMValidate(t *testing.T) {
	m := validKiBaMRM(t)
	if err := m.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := m
	bad.Currents = []float64{-1, 0}
	if err := bad.Validate(); !errors.Is(err, ErrBadModel) {
		t.Errorf("negative current: err = %v", err)
	}
	bad = m
	bad.Battery.C = 2
	if err := bad.Validate(); !errors.Is(err, ErrBadModel) {
		t.Errorf("bad battery: err = %v", err)
	}
	bad = m
	bad.Initial = []float64{0.5, 0.3}
	if err := bad.Validate(); !errors.Is(err, ErrBadModel) {
		t.Errorf("bad initial: err = %v", err)
	}
	bad = m
	bad.Workload = nil
	if err := bad.Validate(); !errors.Is(err, ErrBadModel) {
		t.Errorf("nil workload: err = %v", err)
	}
}

func TestKiBaMRMMaxCurrent(t *testing.T) {
	m := validKiBaMRM(t)
	if got := m.MaxCurrent(); got != 0.96 {
		t.Errorf("MaxCurrent = %v", got)
	}
}
