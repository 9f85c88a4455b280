package main

import (
	"math"
	"strings"
	"testing"
)

func TestTimesRange(t *testing.T) {
	got := timesRange(0, 10, 2.5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	if len(got) != len(want) {
		t.Fatalf("range = %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTimesRangeIncludesEndDespiteRounding(t *testing.T) {
	got := timesRange(0, 1, 0.1)
	if len(got) != 11 {
		t.Errorf("got %d points, want 11 (end point must survive FP rounding)", len(got))
	}
}

func TestWriteCurves(t *testing.T) {
	var sb strings.Builder
	axis := []float64{3600, 7200}
	curves := [][]float64{{0.25, 0.5}, {0.125, 1}}
	if err := writeCurves(&sb, "t_h", axis, 1.0/3600, []string{"a", "b"}, curves); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("output:\n%s", sb.String())
	}
	if lines[0] != "t_h\ta\tb" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1\t0.250000\t0.125000") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "2\t0.500000\t1.000000") {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestJoinComma(t *testing.T) {
	if got := joinComma([]string{"a", "b", "c"}); got != "a, b, c" {
		t.Errorf("joinComma = %q", got)
	}
	if got := joinComma(nil); got != "" {
		t.Errorf("joinComma(nil) = %q", got)
	}
}

// TestSmallExperimentsRun executes the cheap experiments end to end with
// a tiny run budget, catching wiring regressions without the full cost.
func TestSmallExperimentsRun(t *testing.T) {
	cfg := config{runs: 10}
	var sb strings.Builder
	if err := runFig2(&sb, cfg); err != nil {
		t.Errorf("fig2: %v", err)
	}
	if err := runCalibration(&sb, cfg); err != nil {
		t.Errorf("calibration: %v", err)
	}
	if err := runBaselines(&sb, cfg); err != nil {
		t.Errorf("baselines: %v", err)
	}
	if err := runStranded(&sb, cfg); err != nil {
		t.Errorf("stranded: %v", err)
	}
	if !strings.Contains(sb.String(), "lambda_burst_per_hour\t182.00") {
		t.Error("calibration output missing the 182/h result")
	}
	if !strings.Contains(sb.String(), "simple-wireless\t4.5e-05\t49875\t244\t0.226\t") {
		t.Error("stranded output missing the simple-wireless row")
	}
}
