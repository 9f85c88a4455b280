// Harvesting: size the solar panel of an outdoor IoT gateway.
//
//	go run ./examples/harvesting
//
// An outdoor gateway relays traffic continuously and recharges from a
// small solar panel when the sun is out. Modelling sun/cloud alternation
// as a stochastic process, charging states are workload states with
// *negative* current — an extension of the paper's discharge-only model
// (see internal/core's charging transitions). The question: what panel
// current keeps the probability of a dead gateway below 1% over a
// three-day autonomy window?
package main

import (
	"fmt"
	"log"

	"batlife"
)

// gateway builds the workload: the device alternates between relay
// (high draw) and standby (low draw); independently the sky alternates
// between sun and cloud, which we fold into four composite states. With
// sun, the panel offsets the draw by panelA.
func gateway(panelA float64) (*batlife.Workload, error) {
	const (
		relayA   = 0.150
		standbyA = 0.020
		// Mean 20 min relay bursts, 40 min standby.
		relayEnd   = 1.0 / (20 * 60)
		relayStart = 1.0 / (40 * 60)
		// Sun and cloud spells, 90 min each on average.
		sky = 1.0 / (90 * 60)
	)
	mode := func(draw float64, sunny bool) float64 {
		if sunny {
			return draw - panelA
		}
		return draw
	}
	return batlife.NewWorkload(
		[]batlife.StateSpec{
			{Name: "relay/sun", CurrentA: mode(relayA, true)},
			{Name: "relay/cloud", CurrentA: mode(relayA, false)},
			{Name: "standby/sun", CurrentA: mode(standbyA, true)},
			{Name: "standby/cloud", CurrentA: mode(standbyA, false)},
		},
		[]batlife.TransitionSpec{
			{From: "relay/sun", To: "standby/sun", RatePerSec: relayEnd},
			{From: "relay/cloud", To: "standby/cloud", RatePerSec: relayEnd},
			{From: "standby/sun", To: "relay/sun", RatePerSec: relayStart},
			{From: "standby/cloud", To: "relay/cloud", RatePerSec: relayStart},
			{From: "relay/sun", To: "relay/cloud", RatePerSec: sky},
			{From: "relay/cloud", To: "relay/sun", RatePerSec: sky},
			{From: "standby/sun", To: "standby/cloud", RatePerSec: sky},
			{From: "standby/cloud", To: "standby/sun", RatePerSec: sky},
		},
		"standby/cloud",
	)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("harvesting: ")

	battery := batlife.Battery{
		CapacityAs:        batlife.MilliampHours(3000),
		AvailableFraction: 0.625,
		FlowRate:          4.5e-5,
	}
	window := 3 * 24 * 3600.0 // three-day autonomy target
	times := []float64{window / 3, 2 * window / 3, window}

	solver := batlife.NewSolver(batlife.SolverOptions{})
	defer solver.Close()
	opts := batlife.AnalysisOptions{Delta: batlife.MilliampHours(15)}
	fmt.Println("panel current   mean net draw   Pr[dead in 1d]  Pr[dead in 2d]  Pr[dead in 3d]")
	for _, panel := range []float64{0, 0.050, 0.100, 0.150, 0.200} {
		w, err := gateway(panel)
		if err != nil {
			log.Fatal(err)
		}
		mean, err := w.MeanCurrent()
		if err != nil {
			log.Fatal(err)
		}
		res, err := solver.LifetimeDistribution(battery, w, times, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   %3.0f mA        %+6.1f mA       %7.3f%%        %7.3f%%        %7.3f%%\n",
			panel*1000, mean*1000,
			100*res.EmptyProb[0], 100*res.EmptyProb[1], 100*res.EmptyProb[2])
	}
	fmt.Println("\n(a dead gateway means the available charge hit zero at least once;")
	fmt.Println(" charging states have negative current — the paper's model extended")
	fmt.Println(" with upward consumption transitions, surplus discarded at full)")
}
