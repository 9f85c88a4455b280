// Calibration: fit KiBaM constants from discharge measurements.
//
//	go run ./examples/calibration
//
// The paper's Section 3 describes how the two KiBaM constants are
// obtained from measurements: c from the charge delivered under very
// large and very small loads, and k by matching a measured lifetime
// under a known constant load. This example walks that procedure using
// the public API, then validates the fitted model against "held-out"
// pulsed-load measurements — the same structure as the paper's Table 1.
package main

import (
	"fmt"
	"log"

	"batlife"
)

// measurement is a (load, lifetime) pair as one would read off a
// datasheet or a discharge-test rig. These numbers were produced by a
// reference battery (C = 9000 As, c = 0.58, k = 3.2e-5) standing in for
// lab hardware — the fit below recovers it without knowing that.
type measurement struct {
	currentA float64
	seconds  float64
	label    string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibration: ")

	// Step 0: the "lab measurements".
	reference := batlife.Battery{CapacityAs: 9000, AvailableFraction: 0.58, FlowRate: 3.2e-5}
	mustLifetime := func(i float64) float64 {
		l, err := reference.Lifetime(i)
		if err != nil {
			log.Fatal(err)
		}
		return l
	}
	calibLoad := 1.2
	calib := measurement{calibLoad, mustLifetime(calibLoad), "calibration (constant 1.2 A)"}
	tiny := measurement{0.005, mustLifetime(0.005), "trickle discharge (5 mA)"}
	huge := measurement{25, mustLifetime(25), "stress discharge (25 A)"}

	// Step 1: c = delivered(huge load) / delivered(tiny load).
	deliveredTiny := tiny.currentA * tiny.seconds
	deliveredHuge := huge.currentA * huge.seconds
	c := deliveredHuge / deliveredTiny
	capacity := deliveredTiny // at a trickle, the whole capacity drains
	fmt.Printf("step 1: capacity ≈ %.0f As, c ≈ %.3f  (true: 9000, 0.580)\n", capacity, c)

	// Step 2: fit k to the measured lifetime at the calibration load.
	fitted := batlife.Battery{CapacityAs: capacity, AvailableFraction: c}
	k, err := fitted.CalibrateFlowRate(calib.currentA, calib.seconds)
	if err != nil {
		log.Fatal(err)
	}
	fitted.FlowRate = k
	fmt.Printf("step 2: k ≈ %.3e /s            (true: 3.200e-05)\n\n", k)

	// Step 3: validate on held-out pulsed loads, Table-1 style.
	fmt.Println("held-out validation (lifetimes in minutes):")
	fmt.Println("  load                      measured   fitted model   error")
	validate := func(label string, measured, predicted float64) {
		fmt.Printf("  %-24s  %8.1f   %12.1f   %4.1f%%\n",
			label, measured/60, predicted/60, 100*(predicted-measured)/measured)
	}
	for _, freq := range []float64{1, 0.1, 0.01} {
		measured, err := reference.LifetimeSquareWave(1.2, freq, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		predicted, err := fitted.LifetimeSquareWave(1.2, freq, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		validate(fmt.Sprintf("square wave %g Hz", freq), measured, predicted)
	}
	for _, load := range []float64{0.6, 2.4} {
		predicted, err := fitted.Lifetime(load)
		if err != nil {
			log.Fatal(err)
		}
		validate(fmt.Sprintf("constant %.1f A", load), mustLifetime(load), predicted)
	}

	// Step 4: use the fitted model for a stochastic workload question —
	// something the bare measurements cannot answer.
	w, err := batlife.OnOffWorkload(0.5, 1, 1.2)
	if err != nil {
		log.Fatal(err)
	}
	samples, err := batlife.Simulate(fitted, w, batlife.SimulateOptions{Runs: 500, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	mean, err := samples.Mean()
	if err != nil {
		log.Fatal(err)
	}
	q05, err := samples.Quantile(0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstochastic on/off use (0.5 Hz, exp. phases): mean %.0f min, 5%%-quantile %.0f min\n",
		mean/60, q05/60)
}
