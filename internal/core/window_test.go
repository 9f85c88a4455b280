package core

import (
	"testing"

	"batlife/internal/ctmc"
	"batlife/internal/ctmc/ctmctest"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/units"
	"batlife/internal/workload"
)

func timeGrid(from, to, step float64) []float64 {
	var out []float64
	for i := 0; from+float64(i)*step <= to; i++ {
		out = append(out, from+float64(i)*step)
	}
	return out
}

// wirelessModel is the paper's Fig. 10/11 setting: a wireless workload
// on the 800 mAh, c = 0.625 battery.
func wirelessModel(t *testing.T, w *workload.Model) mrm.KiBaMRM {
	t.Helper()
	return mrm.KiBaMRM{
		Workload: w.Chain,
		Currents: w.Currents,
		Initial:  w.Initial,
		Battery:  kibam.Params{Capacity: units.MilliampHours(800).AmpereSeconds(), C: 0.625, K: 4.5e-5},
	}
}

// gatewayModel is the examples/harvesting solar gateway with a 0.1 A
// panel: relay/standby crossed with sun/cloud, charging in the sun.
func gatewayModel(t *testing.T) mrm.KiBaMRM {
	t.Helper()
	var b ctmc.Builder
	const relayEnd, relayStart, sky = 1.0 / 1200, 1.0 / 2400, 1.0 / 5400
	b.Transition("relay/sun", "standby/sun", relayEnd)
	b.Transition("relay/cloud", "standby/cloud", relayEnd)
	b.Transition("standby/sun", "relay/sun", relayStart)
	b.Transition("standby/cloud", "relay/cloud", relayStart)
	b.Transition("relay/sun", "relay/cloud", sky)
	b.Transition("relay/cloud", "relay/sun", sky)
	b.Transition("standby/sun", "standby/cloud", sky)
	b.Transition("standby/cloud", "standby/sun", sky)
	chain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	currents := make([]float64, chain.NumStates())
	currents[chain.Index("relay/sun")] = 0.150 - 0.1
	currents[chain.Index("relay/cloud")] = 0.150
	currents[chain.Index("standby/sun")] = 0.020 - 0.1
	currents[chain.Index("standby/cloud")] = 0.020
	return mrm.KiBaMRM{
		Workload:      chain,
		Currents:      currents,
		Initial:       chain.PointDistribution(chain.Index("standby/cloud")),
		Battery:       kibam.Params{Capacity: units.MilliampHours(3000).AmpereSeconds(), C: 0.625, K: 4.5e-5},
		AllowCharging: true,
	}
}

// TestWindowedCDFWithinDroppedMass pins the windowed solve's error
// contract on the paper's models (Figs. 7–11), the harvesting example's
// charging model and a model with empty-state recovery: every CDF value
// lies at most DroppedMass (+1e-15 rounding) below the full-sweep
// reference, and DroppedMass ≤ ε. Step sizes are coarse to keep the
// full sweeps short; steady-state detection is off on both sides so the
// two loops run the same steps.
func TestWindowedCDFWithinDroppedMass(t *testing.T) {
	simple, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := workload.Burst(workload.BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	onOffTimes := timeGrid(4000, 20000, 2000)
	wirelessTimes := timeGrid(0, 30*3600, 3*3600)
	fig9 := onOffModel(t, 1, 0)
	fig9.Battery.Capacity = 4500
	cases := []struct {
		name  string
		model mrm.KiBaMRM
		delta float64
		times []float64
	}{
		{"fig7", onOffModel(t, 1, 0), 100, onOffTimes},
		{"fig8", onOffModel(t, 0.625, 4.5e-5), 150, onOffTimes},
		{"fig9", fig9, 100, onOffTimes},
		{"fig10", wirelessModel(t, simple), units.MilliampHours(20).AmpereSeconds(), wirelessTimes},
		{"fig11", wirelessModel(t, burst), units.MilliampHours(20).AmpereSeconds(), wirelessTimes},
		{"harvesting", gatewayModel(t), units.MilliampHours(75).AmpereSeconds(), timeGrid(86400, 3*86400, 86400)},
	}
	const eps = 1e-12
	dropped := 0.0
	for _, tc := range cases {
		e, err := Build(tc.model, tc.delta, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		u, err := e.Operator()
		if err != nil {
			t.Fatal(err)
		}
		w := e.emptyIndicator()
		got, err := u.Transient(e.alpha, w, tc.times, ctmc.TransientOptions{Epsilon: eps, DisableSteadyStateDetection: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref, err := ctmctest.Reference(e.Generator(), e.alpha, w, tc.times, eps, false)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.DroppedMass < 0 || got.DroppedMass > eps {
			t.Errorf("%s: DroppedMass = %v, want within [0, %v]", tc.name, got.DroppedMass, eps)
		}
		for k, tm := range tc.times {
			if d := ref.Values[k] - got.Values[k]; d < -1e-15 || d > got.DroppedMass+1e-15 {
				t.Errorf("%s t=%v: F = %v, full sweep %v: gap %v outside [0, DroppedMass=%v]",
					tc.name, tm, got.Values[k], ref.Values[k], d, got.DroppedMass)
			}
		}
		cdf, err := e.LifetimeCDFOpts(tc.times, SolveOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if cdf.DroppedMass < 0 || cdf.DroppedMass > eps {
			t.Errorf("%s: LifetimeCDF DroppedMass = %v, want within [0, %v]", tc.name, cdf.DroppedMass, eps)
		}
		dropped += got.DroppedMass
	}
	if dropped == 0 {
		t.Error("no model dropped any mass; the test must exercise trimming")
	}
}
