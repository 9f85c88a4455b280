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

// TestRunErrorPrefixOnce checks that each error line a failing command
// prints starts with "batlife: " and carries it once, though facade
// errors already start with it, and that ErrBadArgument's exit code
// survives.
func TestRunErrorPrefixOnce(t *testing.T) {
	spec := writeTempSpec(t, chargingSpec)
	for _, tc := range []struct {
		name string
		args []string
		want []string // the prefix of each error line, in order
		deny string   // a substring no error line may contain
	}{
		// The simulator refuses charging workloads with ErrBadArgument.
		{"simulate charging", []string{"simulate", "-spec", spec, "-runs", "10"},
			[]string{"batlife: invalid argument: "}, ""},
		// 7 mAh does not divide 800 mAh's wells: a line for the scenario
		// and the all-failed summary.
		{"sweep", []string{"sweep", "-capacity", "800mAh", "-deltas", "7mAh", "-points", "4"},
			[]string{"batlife: scenario Δ=7mAh: invalid argument: ", "batlife: all 1 scenarios failed: invalid argument: "}, ""},
		// The mean's grid step must divide the wells too.
		{"mean", []string{"mean", "-capacity", "800mAh", "-delta", "7mAh"},
			[]string{"batlife: invalid argument: "}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := runCaptured(t, tc.args...)
			if code != exitUsage {
				t.Errorf("exit code %d, want %d", code, exitUsage)
			}
			var lines []string
			for _, line := range strings.Split(stderr, "\n") {
				if strings.Contains(line, "invalid argument") {
					lines = append(lines, line)
				}
			}
			if len(lines) != len(tc.want) {
				t.Fatalf("error lines %q, want %d", lines, len(tc.want))
			}
			for i, line := range lines {
				if !strings.HasPrefix(line, tc.want[i]) || strings.Count(line, "batlife: ") != 1 {
					t.Errorf("error line %q, want prefix %q and one \"batlife: \"", line, tc.want[i])
				}
				if tc.deny != "" && strings.Contains(line, tc.deny) {
					t.Errorf("error line %q names %s", line, tc.deny)
				}
			}
		})
	}
}

// runCaptured runs a subcommand with stdout discarded and both stderr
// streams — run's and the os.Stderr the subcommands write progress and
// per-scenario lines to — captured, and returns the exit code and
// stderr.
func runCaptured(t *testing.T, args ...string) (int, string) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	oldStdout, oldStderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devnull, stderr
	defer func() { os.Stdout, os.Stderr = oldStdout, oldStderr }()
	code := run(args, stderr)
	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}
