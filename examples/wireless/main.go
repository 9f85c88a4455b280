// Wireless: should a device send data immediately or batch it?
//
//	go run ./examples/wireless
//
// This is the design question behind the paper's Figures 10 and 11: the
// "simple" device transmits whenever data arrives; the "burst" device
// buffers data and transmits in condensed bursts, sleeping in between.
// Both send the same amount of data (the burst model is calibrated so
// its steady-state send probability matches). The burst strategy wins —
// and this example quantifies by how much, with three independent
// methods.
package main

import (
	"fmt"
	"log"

	"batlife"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wireless: ")

	battery := batlife.Battery{
		CapacityAs:        batlife.MilliampHours(800),
		AvailableFraction: 0.625,
		FlowRate:          4.5e-5,
	}

	simple, err := batlife.SimpleWireless()
	if err != nil {
		log.Fatal(err)
	}
	burst, err := batlife.BurstWireless()
	if err != nil {
		log.Fatal(err)
	}

	meanSimple, err := simple.MeanCurrent()
	if err != nil {
		log.Fatal(err)
	}
	meanBurst, err := burst.MeanCurrent()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean draw: simple %.1f mA, burst %.1f mA (more sleep at equal send activity)\n\n",
		meanSimple*1000, meanBurst*1000)

	// Method 1: the Markovian approximation at Δ = 5 mAh (Figure 11).
	var times []float64
	for h := 10.0; h <= 27.5; h += 2.5 {
		times = append(times, h*3600)
	}
	solver := batlife.NewSolver(batlife.SolverOptions{})
	defer solver.Close()
	opts := batlife.AnalysisOptions{Delta: batlife.MilliampHours(5)}
	ds, err := solver.LifetimeDistribution(battery, simple, times, opts)
	if err != nil {
		log.Fatal(err)
	}
	db, err := solver.LifetimeDistribution(battery, burst, times, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Pr[battery empty at t]   (Markovian approximation, delta = 5 mAh)")
	fmt.Println("    t       simple    burst")
	for i, t := range times {
		fmt.Printf("  %5.1f h   %6.2f%%  %6.2f%%\n", t/3600, 100*ds.EmptyProb[i], 100*db.EmptyProb[i])
	}

	// Method 2: Monte-Carlo simulation, 1000 runs each.
	ss, err := batlife.Simulate(battery, simple, batlife.SimulateOptions{Runs: 1000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	sb, err := batlife.Simulate(battery, burst, batlife.SimulateOptions{Runs: 1000, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	ms, err := ss.Mean()
	if err != nil {
		log.Fatal(err)
	}
	mb, err := sb.Mean()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated mean lifetime: simple %.1f h, burst %.1f h (+%.1f%%)\n",
		ms/3600, mb/3600, 100*(mb-ms)/ms)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		qs, err := ss.Quantile(p)
		if err != nil {
			log.Fatal(err)
		}
		qb, err := sb.Quantile(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2.0f%%-quantile: simple %5.1f h, burst %5.1f h\n", p*100, qs/3600, qb/3600)
	}

	// Method 3: the exact transform solution for the ideal-battery
	// variant (c = 1) of both workloads.
	ideal := battery
	ideal.AvailableFraction = 1
	ideal.FlowRate = 0
	es, err := solver.ExactCDF(ideal, simple, times, batlife.AnalysisOptions{})
	if err != nil {
		log.Fatal(err)
	}
	eb, err := solver.ExactCDF(ideal, burst, times, batlife.AnalysisOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nexact CDF with all charge available (c = 1):")
	fmt.Println("    t       simple    burst")
	for i, t := range times {
		fmt.Printf("  %5.1f h   %6.2f%%  %6.2f%%\n", t/3600, 100*es.EmptyProb[i], 100*eb.EmptyProb[i])
	}
}
