// Command batlife computes battery lifetimes and lifetime distributions
// from the command line.
//
// Subcommands:
//
//	lifetime   analytic KiBaM lifetime under constant or square-wave load
//	cdf        lifetime distribution via the Markovian approximation
//	simulate   lifetime distribution via Monte-Carlo simulation
//	calibrate  fit the KiBaM flow constant k to a measured lifetime
//	trace      charge-well evolution under a square wave
//	mean       expected lifetime and stranded charge
//	compare    approximation vs simulation (vs exact when c = 1)
//	sweep      parallel scenario grid (capacities x discretisation steps)
//
// Quantities are written with units: currents as "0.96A"/"200mA",
// charges as "800mAh"/"7200As", durations as "90min"/"2h"/"15000s".
// Workloads are either built-in ("simple", "burst", "onoff") or custom
// JSON specifications (see -spec).
//
// Exit status distinguishes the failure class for scripts driving
// parameter studies:
//
//	0  success
//	1  internal error (solver failure, I/O, ...)
//	2  usage error: unknown subcommand, bad flags, or batlife.ErrBadArgument
//	3  batlife.ErrIterationLimit: the solve was refused or truncated by
//	   an iteration budget — retry with a larger budget or coarser grid
//
// Examples:
//
//	batlife lifetime -capacity 2000mAh -c 0.625 -k 4.5e-5 -current 0.96A
//	batlife lifetime -capacity 2000mAh -c 0.625 -k 4.5e-5 -current 0.96A -freq 1
//	batlife cdf -workload simple -capacity 800mAh -c 0.625 -k 4.5e-5 -delta 5mAh -until 30h -points 60
//	batlife simulate -workload onoff -capacity 2000mAh -c 1 -runs 1000 -until 6h -points 50
//	batlife calibrate -capacity 2000mAh -c 0.625 -current 0.96A -target 90min
//	batlife trace -capacity 2000mAh -c 0.625 -k 4.5e-5 -current 0.96A -freq 0.001 -until 4h
//	batlife sweep -workload simple -capacity 800mAh -deltas 10mAh,5mAh,2.5mAh -until 30h -points 60
package main

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"batlife"
)

// Exit codes; see the command doc comment.
const (
	exitOK       = 0
	exitInternal = 1
	exitUsage    = 2
	exitLimit    = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run dispatches one subcommand and returns the process exit code.
func run(args []string, stderr *os.File) int {
	if len(args) < 1 {
		usage(stderr)
		return exitUsage
	}
	var err error
	switch args[0] {
	case "lifetime":
		err = cmdLifetime(args[1:])
	case "cdf":
		err = cmdCDF(args[1:])
	case "simulate":
		err = cmdSimulate(args[1:])
	case "calibrate":
		err = cmdCalibrate(args[1:])
	case "trace":
		err = cmdTrace(args[1:])
	case "mean":
		err = cmdMean(args[1:])
	case "compare":
		err = cmdCompare(args[1:])
	case "sweep":
		err = cmdSweep(args[1:])
	case "-h", "--help", "help":
		usage(stderr)
		return exitOK
	default:
		fmt.Fprintf(stderr, "batlife: unknown subcommand %q\n\n", args[0])
		usage(stderr)
		return exitUsage
	}
	if err != nil {
		fmt.Fprintln(stderr, "batlife:", bare{err})
	}
	return exitCode(err)
}

// bare prints an error without the "batlife: " prefix facade errors
// carry, for messages that already start with it or that continue a
// line; errors.Is and errors.As see through it.
type bare struct{ error }

func (b bare) Error() string { return strings.TrimPrefix(b.error.Error(), "batlife: ") }

func (b bare) Unwrap() error { return b.error }

// exitCode maps a subcommand error to the exit status: invalid
// arguments land with usage errors, iteration-budget refusals get their
// own code so callers can retry with a different budget, and everything
// else is an internal error.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, batlife.ErrBadArgument):
		return exitUsage
	case errors.Is(err, batlife.ErrIterationLimit):
		return exitLimit
	}
	return exitInternal
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: batlife <subcommand> [flags]

subcommands:
  lifetime   analytic KiBaM lifetime under constant or square-wave load
  cdf        lifetime distribution via the Markovian approximation
  simulate   lifetime distribution via Monte-Carlo simulation
  calibrate  fit the KiBaM flow constant k to a measured lifetime
  trace      charge-well evolution under a square wave
  mean       expected lifetime and stranded charge
  compare    approximation vs simulation (vs exact when c = 1)
  sweep      parallel scenario grid (capacities x discretisation steps)

run 'batlife <subcommand> -h' for flags; exit codes: 0 ok, 1 internal,
2 usage, 3 iteration limit
`)
}
