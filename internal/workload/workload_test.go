package workload

import (
	"errors"
	"math"
	"testing"

	"batlife/internal/units"
)

// current returns the load current of the named state.
func current(t *testing.T, m *Model, name string) float64 {
	t.Helper()
	i := m.Chain.Index(name)
	if i < 0 {
		t.Fatalf("no state %q", name)
	}
	return m.Currents[i]
}

func TestOnOffStructure(t *testing.T) {
	m, err := OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.NumStates() != 2 {
		t.Fatalf("K=1 on/off has %d states", m.Chain.NumStates())
	}
	// λ = 2·f·K = 2 for f = 1, K = 1.
	if got := m.Chain.ExitRate(m.Chain.Index("on0")); math.Abs(got-2) > 1e-12 {
		t.Errorf("on-state rate = %v, want 2", got)
	}
	if c := current(t, m, "on0"); c != 0.96 {
		t.Errorf("on current = %v", c)
	}
	if c := current(t, m, "off0"); c != 0 {
		t.Errorf("off current = %v", c)
	}
	if m.Initial[m.Chain.Index("on0")] != 1 {
		t.Error("on/off model must start in on0")
	}
}

func TestOnOffErlangK(t *testing.T) {
	const k = 4
	m, err := OnOff(0.5, k, units.Amperes(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.NumStates() != 2*k {
		t.Fatalf("K=%d on/off has %d states, want %d", k, m.Chain.NumStates(), 2*k)
	}
	// All rates λ = 2·f·K = 4.
	for i := 0; i < m.Chain.NumStates(); i++ {
		if got := m.Chain.ExitRate(i); math.Abs(got-4) > 1e-12 {
			t.Errorf("state %s rate = %v, want 4", m.Chain.Name(i), got)
		}
	}
	// Expected cycle time = 2K/λ = 1/f: one full period.
	pi, err := m.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	onProb := 0.0
	for i := 0; i < m.Chain.NumStates(); i++ {
		if m.Currents[i] > 0 {
			onProb += pi[i]
		}
	}
	if math.Abs(onProb-0.5) > 1e-9 {
		t.Errorf("steady-state on probability = %v, want 0.5", onProb)
	}
}

func TestOnOffMeanCurrent(t *testing.T) {
	m, err := OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	mean, err := m.MeanCurrent()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-0.48) > 1e-9 {
		t.Errorf("mean current = %v, want 0.48", mean)
	}
}

func TestOnOffErrors(t *testing.T) {
	cases := []struct {
		freq float64
		k    int
		on   units.Current
	}{
		{0, 1, units.Amperes(1)},
		{-1, 1, units.Amperes(1)},
		{math.NaN(), 1, units.Amperes(1)},
		{1, 0, units.Amperes(1)},
		{1, 1, units.Amperes(0)},
	}
	for _, tc := range cases {
		if _, err := OnOff(tc.freq, tc.k, tc.on); !errors.Is(err, ErrBadWorkload) {
			t.Errorf("OnOff(%v,%d,%v): err = %v, want ErrBadWorkload", tc.freq, tc.k, tc.on, err)
		}
	}
}

func TestErlangOrderMatchesEmpiricalCV(t *testing.T) {
	// The on-phase of an Erlang-K model is K exponential stages in
	// series, at rate 2fK each: mean K/(2fK), variance K/(2fK)², so its
	// coefficient of variation is 1/√K.
	const k = 9
	m, err := OnOff(1, k, units.Amperes(1))
	if err != nil {
		t.Fatal(err)
	}
	var mean, variance float64
	for i := 0; i < m.Chain.NumStates(); i++ {
		if m.Currents[i] > 0 {
			rate := m.Chain.ExitRate(i)
			mean += 1 / rate
			variance += 1 / (rate * rate)
		}
	}
	if cv := math.Sqrt(variance) / mean; math.Abs(cv-1/math.Sqrt(k)) > 1e-12 {
		t.Errorf("on-phase CV = %v, want 1/√%d", cv, k)
	}
}

func TestSimpleModelMatchesPaper(t *testing.T) {
	m, err := Simple(SimpleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.NumStates() != 3 {
		t.Fatalf("simple model has %d states", m.Chain.NumStates())
	}
	// Steady state (1/2, 1/4, 1/4) for (idle, send, sleep).
	pi, err := m.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"idle": 0.5, "send": 0.25, "sleep": 0.25}
	for name, p := range want {
		if got := pi[m.Chain.Index(name)]; math.Abs(got-p) > 1e-12 {
			t.Errorf("π(%s) = %v, want %v", name, got, p)
		}
	}
	// Currents 8 / 200 / 0 mA.
	for name, ma := range map[string]float64{"idle": 8, "send": 200, "sleep": 0} {
		if c := current(t, m, name); math.Abs(c*1000-ma) > 1e-9 {
			t.Errorf("current(%s) = %v mA, want %v", name, c*1000, ma)
		}
	}
	// Rates are per hour: idle exit rate λ+τ = 3/h.
	if got := m.Chain.ExitRate(m.Chain.Index("idle")); math.Abs(got-3.0/3600) > 1e-15 {
		t.Errorf("idle exit rate = %v /s, want 3/h", got)
	}
	if m.Initial[m.Chain.Index("idle")] != 1 {
		t.Error("simple model must start in idle")
	}
}

func TestSimpleModelTheoreticalEndurance(t *testing.T) {
	// Sanity numbers from the paper: with C = 800 mAh the device lasts
	// 4 h sending continuously or 100 h idling.
	m, err := Simple(SimpleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c := units.MilliampHours(800)
	send, idle := current(t, m, "send"), current(t, m, "idle")
	if h := c.AmpereSeconds() / send / 3600; math.Abs(h-4) > 1e-9 {
		t.Errorf("send endurance = %v h, want 4", h)
	}
	if h := c.AmpereSeconds() / idle / 3600; math.Abs(h-100) > 1e-9 {
		t.Errorf("idle endurance = %v h, want 100", h)
	}
}

func TestSimpleBadConfig(t *testing.T) {
	if _, err := Simple(SimpleConfig{Lambda: -1}); !errors.Is(err, ErrBadWorkload) {
		t.Errorf("err = %v, want ErrBadWorkload", err)
	}
}

func TestBurstModelStructure(t *testing.T) {
	m, err := Burst(BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.NumStates() != 5 {
		t.Fatalf("burst model has %d states, want 5", m.Chain.NumStates())
	}
	for _, name := range []string{"on-idle", "off-idle", "on-send", "off-send", "sleep"} {
		if m.Chain.Index(name) < 0 {
			t.Errorf("missing state %s", name)
		}
	}
	// Sending states draw 200 mA in both flow conditions.
	for _, name := range []string{"on-send", "off-send"} {
		if c := current(t, m, name); math.Abs(c-0.2) > 1e-12 {
			t.Errorf("current(%s) = %v", name, c)
		}
	}
	if m.Initial[m.Chain.Index("off-idle")] != 1 {
		t.Error("burst model must start in off-idle")
	}
}

func TestBurstCalibrationMatchesPaper(t *testing.T) {
	// §4.3: λ_burst = 182 per hour makes the burst model's send
	// probability equal the simple model's 1/4.
	lb, err := CalibrateBurst(BurstConfig{}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb-182) > 0.5 {
		t.Errorf("calibrated λ_burst = %v /h, paper reports 182", lb)
	}
}

func TestBurstSendProbabilityAtPaperRate(t *testing.T) {
	m, err := Burst(BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.SendProbability()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.25) > 1e-3 {
		t.Errorf("send probability at default λ_burst = %v, want 0.25", p)
	}
}

func TestBurstSleepsMoreThanSimple(t *testing.T) {
	// §4.3: "the steady-state probability to be in sleep is higher in
	// the burst model than in the simple model".
	simple, err := Simple(SimpleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := Burst(BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	piS, err := simple.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	piB, err := burst.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if piB[burst.Chain.Index("sleep")] <= piS[simple.Chain.Index("sleep")] {
		t.Errorf("burst sleep %v not above simple sleep %v",
			piB[burst.Chain.Index("sleep")], piS[simple.Chain.Index("sleep")])
	}
}

func TestBurstMeanCurrentBelowSimple(t *testing.T) {
	// More sleep at the same send probability ⇒ lower average draw.
	simple, err := Simple(SimpleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := Burst(BurstConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := simple.MeanCurrent()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := burst.MeanCurrent()
	if err != nil {
		t.Fatal(err)
	}
	if mb >= ms {
		t.Errorf("burst mean current %v not below simple %v", mb, ms)
	}
}

func TestCalibrateBurstErrors(t *testing.T) {
	for _, target := range []float64{0, 1, -0.2, 1.5} {
		if _, err := CalibrateBurst(BurstConfig{}, target); !errors.Is(err, ErrBadWorkload) {
			t.Errorf("target %v: err = %v, want ErrBadWorkload", target, err)
		}
	}
}

func TestBurstBadConfig(t *testing.T) {
	if _, err := Burst(BurstConfig{Mu: -3}); !errors.Is(err, ErrBadWorkload) {
		t.Errorf("err = %v, want ErrBadWorkload", err)
	}
}
