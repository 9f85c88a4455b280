package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The command functions parse their own flags from argument slices, so
// they can be driven end to end in-process. They print to stdout, which
// go test tolerates; correctness of the numbers is pinned by the
// library tests — these tests pin the wiring.

func TestCmdLifetime(t *testing.T) {
	cases := [][]string{
		{"-current", "0.96A"},
		{"-current", "0.96A", "-freq", "1"},
		{"-current", "0.96A", "-cutoff", "3.4"},
		{"-current", "0.96A", "-freq", "1", "-cutoff", "3.4"},
	}
	for _, args := range cases {
		if err := cmdLifetime(args); err != nil {
			t.Errorf("lifetime %v: %v", args, err)
		}
	}
}

func TestCmdLifetimeErrors(t *testing.T) {
	cases := [][]string{
		{"-current", "0.96V"},
		{"-capacity", "800joules"},
		{"-current", "0.96A", "-cutoff", "9.9"},
		{"-c", "0"},
	}
	for _, args := range cases {
		if err := cmdLifetime(args); err == nil {
			t.Errorf("lifetime %v: expected error", args)
		}
	}
}

func TestCmdCalibrate(t *testing.T) {
	if err := cmdCalibrate([]string{"-target", "90min"}); err != nil {
		t.Errorf("calibrate: %v", err)
	}
	if err := cmdCalibrate([]string{"-target", "1min"}); err == nil {
		t.Error("unreachable target accepted")
	}
}

func TestCmdTrace(t *testing.T) {
	if err := cmdTrace([]string{"-until", "30min", "-interval", "5min"}); err != nil {
		t.Errorf("trace: %v", err)
	}
	if err := cmdTrace([]string{"-interval", "0s"}); err == nil {
		t.Error("zero interval accepted")
	}
}

// chargingSpec is a workload with a harvesting (negative-current) mode.
const chargingSpec = `{
  "states": [
    {"name": "idle", "current": "8mA"},
    {"name": "send", "current": "200mA"},
    {"name": "harvest", "current": "-20mA"}
  ],
  "transitions": [
    {"from": "idle", "to": "send", "rate_per_hour": 2},
    {"from": "send", "to": "idle", "rate_per_hour": 6},
    {"from": "idle", "to": "harvest", "rate_per_hour": 1},
    {"from": "harvest", "to": "idle", "rate_per_hour": 2}
  ],
  "initial": "idle"
}`

// captureStdout runs cmd with os.Stdout redirected to a file and
// returns what it printed.
func captureStdout(t *testing.T, cmd func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	cmdErr := cmd()
	os.Stdout = old
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), cmdErr
}

// column returns the given tab-separated column of every line after the
// header.
func column(out string, col int) []string {
	var vals []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		vals = append(vals, strings.Split(line, "\t")[col])
	}
	return vals
}

func TestCmdCDF(t *testing.T) {
	args := []string{
		"-workload", "onoff", "-capacity", "7200As", "-c", "1", "-k", "0",
		"-delta", "720As", "-until", "6h", "-points", "4",
	}
	if err := cmdCDF(args); err != nil {
		t.Errorf("cdf: %v", err)
	}
	if err := cmdCDF(append(args[:len(args):len(args)], "-plot")); err != nil {
		t.Errorf("cdf -plot: %v", err)
	}
	if err := cmdCDF([]string{"-delta", "7As"}); err == nil {
		t.Error("non-divisor delta accepted")
	}

	// A charging spec solves, and agrees with sweep on the same flags.
	spec := writeTempSpec(t, chargingSpec)
	flags := []string{"-spec", spec, "-capacity", "800mAh", "-until", "30h", "-points", "4"}
	cdfOut, err := captureStdout(t, func() error { return cmdCDF(append(flags, "-delta", "10mAh")) })
	if err != nil {
		t.Fatalf("cdf charging spec: %v", err)
	}
	sweepOut, err := captureStdout(t, func() error { return cmdSweep(append(flags, "-deltas", "10mAh")) })
	if err != nil {
		t.Fatalf("sweep charging spec: %v", err)
	}
	got, want := column(cdfOut, 2), column(sweepOut, 2)
	if strings.Join(got, " ") != strings.Join(want, " ") || len(got) != 4 {
		t.Errorf("cdf Pr_empty = %v, sweep = %v", got, want)
	}
}

func TestCmdSimulate(t *testing.T) {
	args := []string{
		"-workload", "onoff", "-capacity", "7200As", "-c", "1", "-k", "0",
		"-runs", "20", "-until", "6h", "-points", "4",
	}
	if err := cmdSimulate(args); err != nil {
		t.Errorf("simulate: %v", err)
	}
}

func TestCmdMean(t *testing.T) {
	args := []string{
		"-workload", "onoff", "-capacity", "7200As", "-delta", "900As",
	}
	if err := cmdMean(args); err != nil {
		t.Errorf("mean: %v", err)
	}
	if err := cmdMean([]string{"-delta", "nonsense"}); err == nil {
		t.Error("bad delta accepted")
	}
	spec := writeTempSpec(t, chargingSpec)
	if err := cmdMean([]string{"-spec", spec, "-capacity", "800mAh", "-delta", "10mAh"}); err != nil {
		t.Errorf("mean charging spec: %v", err)
	}
}

func TestCmdCompare(t *testing.T) {
	args := []string{
		"-workload", "onoff", "-capacity", "7200As", "-c", "1", "-k", "0",
		"-delta", "720As", "-runs", "50", "-until", "6h", "-points", "3",
	}
	if err := cmdCompare(args); err != nil {
		t.Errorf("compare: %v", err)
	}
	// Two-well battery: no exact column, still works.
	args2 := []string{
		"-workload", "onoff", "-capacity", "7200As", "-c", "0.625", "-k", "4.5e-5",
		"-delta", "900As", "-runs", "50", "-until", "6h", "-points", "3",
	}
	if err := cmdCompare(args2); err != nil {
		t.Errorf("compare two-well: %v", err)
	}
}

func TestCmdSweep(t *testing.T) {
	args := []string{
		"-workload", "onoff", "-capacity", "7200As", "-c", "1", "-k", "0",
		"-deltas", "720As,360As", "-until", "6h", "-points", "4", "-workers", "2",
	}
	if err := cmdSweep(args); err != nil {
		t.Errorf("sweep: %v", err)
	}
	multi := []string{
		"-workload", "onoff", "-capacity", "7200As", "-c", "1", "-k", "0",
		"-capacities", "7200As,3600As", "-deltas", "720As",
		"-until", "6h", "-points", "3",
	}
	if err := cmdSweep(multi); err != nil {
		t.Errorf("sweep -capacities: %v", err)
	}
	if err := cmdSweep([]string{"-deltas", "nonsense"}); err == nil {
		t.Error("bad delta accepted")
	}
	// Non-divisor deltas fail every scenario, which must fail the command.
	if err := cmdSweep([]string{
		"-workload", "onoff", "-capacity", "7200As", "-c", "1", "-k", "0",
		"-deltas", "7As", "-until", "6h", "-points", "3",
	}); err == nil {
		t.Error("all-failing sweep reported success")
	}
}

func TestCmdSweepSpec(t *testing.T) {
	spec := `{
	  "states": [
	    {"name": "idle", "current": "8mA"},
	    {"name": "send", "current": "200mA"}
	  ],
	  "transitions": [
	    {"from": "idle", "to": "send", "rate_per_hour": 2},
	    {"from": "send", "to": "idle", "rate_per_hour": 6}
	  ],
	  "initial": "idle"
	}`
	path := writeTempSpec(t, spec)
	args := []string{
		"-spec", path, "-capacity", "800mAh", "-c", "1", "-k", "0",
		"-deltas", "80mAh", "-until", "30h", "-points", "3",
	}
	if err := cmdSweep(args); err != nil {
		t.Errorf("sweep -spec: %v", err)
	}
}

func TestDKWBand(t *testing.T) {
	if b := dkwBand(1000); b < 0.042 || b > 0.044 {
		t.Errorf("dkwBand(1000) = %v", b)
	}
	if b := dkwBand(0); b != 1 {
		t.Errorf("dkwBand(0) = %v", b)
	}
}
