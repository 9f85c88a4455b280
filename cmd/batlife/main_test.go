package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"batlife"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, exitOK},
		{"bad argument", batlife.ErrBadArgument, exitUsage},
		{"wrapped bad argument", fmt.Errorf("cdf: %w", fmt.Errorf("%w: c 0", batlife.ErrBadArgument)), exitUsage},
		{"iteration limit", batlife.ErrIterationLimit, exitLimit},
		{"wrapped iteration limit", fmt.Errorf("sweep: %w", batlife.ErrIterationLimit), exitLimit},
		{"internal", errors.New("disk on fire"), exitInternal},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, exitUsage},
		{"unknown subcommand", []string{"bogus"}, exitUsage},
		{"help", []string{"help"}, exitOK},
		{"lifetime ok", []string{"lifetime", "-current", "0.96A"}, exitOK},
		{"lifetime bad unit", []string{"lifetime", "-current", "0.96V"}, exitInternal},
		{"lifetime bad params", []string{"lifetime", "-current", "0.96A", "-c", "0"}, exitInternal},
	}
	// Subcommands print to stdout; silence it for the test.
	oldStdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = oldStdout }()
	for _, tc := range cases {
		if got := run(tc.args, devnull); got != tc.want {
			t.Errorf("run(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestRunBadArgumentExitCode drives a facade-backed subcommand with an
// argument the library rejects via ErrBadArgument and checks the
// distinct usage exit code survives the dispatch path.
func TestRunBadArgumentExitCode(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	oldStdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = oldStdout }()
	// sweep goes through batlife.Solver, which rejects a non-positive
	// discretisation step with ErrBadArgument; with a single scenario
	// the all-failed path must carry the sentinel out.
	got := run([]string{"sweep", "-workload", "simple", "-capacity", "800mAh",
		"-deltas", "0mAh", "-until", "30h", "-points", "4"}, devnull)
	if got != exitUsage {
		t.Errorf("run(sweep -deltas 0mAh) = %d, want %d", got, exitUsage)
	}
	// 7 mAh does not divide 800 mAh's wells: every solving command
	// reports it as a usage error, as sweep does.
	for _, cmd := range []string{"cdf", "mean", "compare"} {
		if got := run([]string{cmd, "-capacity", "800mAh", "-delta", "7mAh"}, devnull); got != exitUsage {
			t.Errorf("run(%s -delta 7mAh) = %d, want %d", cmd, got, exitUsage)
		}
	}
}

// TestRunErrorPrefixOnce checks a facade error, which already starts
// with "batlife: ", is printed with the prefix once.
func TestRunErrorPrefixOnce(t *testing.T) {
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	// The simulator refuses charging workloads with ErrBadArgument.
	spec := writeTempSpec(t, chargingSpec)
	if got := run([]string{"simulate", "-spec", spec, "-runs", "10"}, stderr); got != exitUsage {
		t.Fatalf("run(simulate -spec charging) = %d, want %d", got, exitUsage)
	}
	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	msg := string(out)
	if !strings.HasPrefix(msg, "batlife: invalid argument: ") || strings.Contains(msg, "batlife: batlife:") {
		t.Errorf("stderr = %q, want one \"batlife: \" prefix", msg)
	}
}
