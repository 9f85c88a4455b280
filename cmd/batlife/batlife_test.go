package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestTimeGrid(t *testing.T) {
	times, err := timeGrid("2h", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1800, 3600, 5400, 7200}
	if len(times) != len(want) {
		t.Fatalf("grid = %v", times)
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-9 {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTimeGridErrors(t *testing.T) {
	if _, err := timeGrid("bogus", 4); err == nil {
		t.Error("bad duration accepted")
	}
	if _, err := timeGrid("2h", 1); err == nil {
		t.Error("single point accepted")
	}
	if _, err := timeGrid("-2h", 4); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestBatteryFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	bf := addBatteryFlags(fs)
	if err := fs.Parse([]string{"-capacity", "800mAh", "-c", "0.5", "-k", "1e-5"}); err != nil {
		t.Fatal(err)
	}
	p, err := bf.params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Capacity != 2880 || p.C != 0.5 || p.K != 1e-5 {
		t.Errorf("params = %+v", p)
	}
}

func TestBatteryFlagsInvalid(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	bf := addBatteryFlags(fs)
	if err := fs.Parse([]string{"-capacity", "800joules"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bf.params(); err == nil {
		t.Error("bad capacity unit accepted")
	}
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	bf2 := addBatteryFlags(fs2)
	if err := fs2.Parse([]string{"-c", "1.5"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bf2.params(); err == nil {
		t.Error("c > 1 accepted")
	}
}

func TestWorkloadFlagsBuiltins(t *testing.T) {
	for _, name := range []string{"simple", "burst", "onoff"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		wf := addWorkloadFlags(fs)
		if err := fs.Parse([]string{"-workload", name}); err != nil {
			t.Fatal(err)
		}
		m, err := wf.model()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Chain.NumStates() == 0 {
			t.Errorf("%s: empty chain", name)
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	wf := addWorkloadFlags(fs)
	if err := fs.Parse([]string{"-workload", "quantum"}); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.model(); err == nil {
		t.Error("unknown workload accepted")
	}
}

func writeTempSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSpec(t *testing.T) {
	path := writeTempSpec(t, `{
		"states": [
			{"name": "idle", "current": "8mA"},
			{"name": "send", "current": "0.2A"}
		],
		"transitions": [
			{"from": "idle", "to": "send", "rate_per_hour": 2},
			{"from": "send", "to": "idle", "rate_per_second": 0.00166}
		],
		"initial": "idle"
	}`)
	w, err := loadPublicSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := internalModel(w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.NumStates() != 2 {
		t.Fatalf("states = %d", m.Chain.NumStates())
	}
	idle := m.Chain.Index("idle")
	if m.Currents[idle] != 0.008 {
		t.Errorf("idle current = %v", m.Currents[idle])
	}
	if got := m.Chain.ExitRate(idle); math.Abs(got-2.0/3600) > 1e-12 {
		t.Errorf("idle rate = %v, want 2/h", got)
	}
	if m.Initial[idle] != 1 {
		t.Error("initial distribution not on idle")
	}
}

func TestLoadSpecCanonicalCodecForm(t *testing.T) {
	// The CLI accepts the canonical v1 codec form (versioned, numeric
	// currents) — one wire schema shared with the batlifed daemon — and
	// the internal model rebuilt from it agrees with the public one.
	path := writeTempSpec(t, `{
		"version": 1,
		"states": [
			{"name": "idle", "current": 0.008},
			{"name": "send", "current": 0.2}
		],
		"transitions": [
			{"from": "idle", "to": "send", "rate_per_second": 0.5},
			{"from": "send", "to": "idle", "rate_per_second": 0.25}
		],
		"initial": "idle"
	}`)
	w, err := loadPublicSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := internalModel(w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.NumStates() != 2 {
		t.Fatalf("states = %d", m.Chain.NumStates())
	}
	if got := m.Currents[m.Chain.Index("send")]; got != 0.2 {
		t.Errorf("send current = %v", got)
	}
	states, _, initial := w.Spec()
	if len(states) != 2 || initial != "idle" {
		t.Errorf("public spec: %d states, initial %q", len(states), initial)
	}

	// An undeclared transition endpoint is now a loud spec error.
	bad := writeTempSpec(t, `{
		"states": [{"name": "a", "current": "1A"}],
		"transitions": [{"from": "a", "to": "ghost", "rate_per_second": 1}],
		"initial": "a"
	}`)
	if _, err := loadPublicSpec(bad); err == nil {
		t.Error("undeclared endpoint accepted")
	}
}

func TestLoadSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"empty states", `{"states": [], "initial": "x"}`},
		{"bad json", `{`},
		{"unknown initial", `{"states":[{"name":"a","current":"1A"}],"initial":"zzz"}`},
		{"bad current", `{"states":[{"name":"a","current":"1V"}],"initial":"a"}`},
		{"both rate units", `{"states":[{"name":"a","current":"1A"},{"name":"b","current":"0mA"}],
			"transitions":[{"from":"a","to":"b","rate_per_hour":1,"rate_per_second":1}],"initial":"a"}`},
		{"negative rate", `{"states":[{"name":"a","current":"1A"},{"name":"b","current":"0mA"}],
			"transitions":[{"from":"a","to":"b","rate_per_hour":-1}],"initial":"a"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTempSpec(t, tc.json)
			if _, err := loadPublicSpec(path); err == nil {
				t.Error("invalid spec accepted")
			}
		})
	}
	if _, err := loadPublicSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
