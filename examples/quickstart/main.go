// Quickstart: model a phone battery, ask three questions — how long the
// battery lasts under a constant load, how much an intermittent load
// extends that, and what the full lifetime distribution looks like when
// the device follows a stochastic workload.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"batlife"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// The 2000 mAh cell used throughout the DSN 2007 paper:
	// 62.5% of the charge is immediately available, the rest is bound
	// and flows over with rate constant k = 4.5e-5/s.
	battery := batlife.PaperBattery()

	// 1. Constant 0.96 A load.
	constant, err := battery.Lifetime(0.96)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constant 0.96 A load:      %6.1f min\n", constant/60)

	// 2. Same current, but pulsed at 1 Hz with a 50%% duty cycle. The
	// battery recovers during the off phases, so the lifetime is far
	// more than doubled.
	pulsed, err := battery.LifetimeSquareWave(0.96, 1, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pulsed 0.96 A load (1 Hz): %6.1f min  (%.0f%% more on-time)\n",
		pulsed/60, 100*(pulsed/2-constant)/constant)

	// 3. A stochastic workload: the paper's simple wireless device
	// (idle 8 mA / send 200 mA / sleep 0 mA), on an 800 mAh battery.
	phone := batlife.Battery{
		CapacityAs:        batlife.MilliampHours(800),
		AvailableFraction: 0.625,
		FlowRate:          4.5e-5,
	}
	device, err := batlife.SimpleWireless()
	if err != nil {
		log.Fatal(err)
	}
	var times []float64
	for h := 5.0; h <= 25; h += 2.5 {
		times = append(times, h*3600)
	}
	solver := batlife.NewSolver(batlife.SolverOptions{})
	defer solver.Close()
	result, err := solver.LifetimeDistribution(phone, device, times,
		batlife.AnalysisOptions{Delta: batlife.MilliampHours(5)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstochastic wireless workload, Pr[battery empty at t]:")
	for i, t := range result.Times {
		fmt.Printf("  %5.1f h: %6.2f%%\n", t/3600, 100*result.EmptyProb[i])
	}
	fmt.Printf("(expanded Markov chain: %d states, %d transitions, %d iterations)\n",
		result.States, result.Transitions, result.Iterations)
}
