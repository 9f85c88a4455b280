package batlife_test

import (
	"fmt"

	"batlife"
)

// The paper's Table 1 in three lines: the same current, continuous vs
// pulsed, on the same battery.
func ExampleBattery_Lifetime() {
	battery := batlife.PaperBattery()
	continuous, err := battery.Lifetime(0.96)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	pulsed, err := battery.LifetimeSquareWave(0.96, 1, 0.5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("continuous: %.0f min\n", continuous/60)
	fmt.Printf("pulsed:     %.0f min\n", pulsed/60)
	// Output:
	// continuous: 91 min
	// pulsed:     203 min
}

// Computing a lifetime distribution for the paper's simple wireless
// device.
func ExampleSolver_LifetimeDistribution() {
	battery := batlife.Battery{
		CapacityAs:        batlife.MilliampHours(800),
		AvailableFraction: 0.625,
		FlowRate:          4.5e-5,
	}
	device, err := batlife.SimpleWireless()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	solver := batlife.NewSolver(batlife.SolverOptions{})
	defer solver.Close()
	res, err := solver.LifetimeDistribution(battery, device, []float64{10 * 3600, 20 * 3600},
		batlife.AnalysisOptions{Delta: batlife.MilliampHours(5)})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("Pr[empty at 10 h] = %.2f\n", res.EmptyProb[0])
	fmt.Printf("Pr[empty at 20 h] = %.2f\n", res.EmptyProb[1])
	// Output:
	// Pr[empty at 10 h] = 0.12
	// Pr[empty at 20 h] = 0.96
}

// Fitting the KiBaM flow constant to a measured lifetime, the paper's
// Section 3 calibration procedure.
func ExampleBattery_CalibrateFlowRate() {
	battery := batlife.Battery{CapacityAs: 7200, AvailableFraction: 0.625}
	k, err := battery.CalibrateFlowRate(0.96, 90*60) // 90 min at 0.96 A
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("k is of order 1e-5: %v\n", k > 1e-5 && k < 1e-4)
	// Output:
	// k is of order 1e-5: true
}

// Building a custom workload: a device with a charging (harvesting)
// state, expressed as a negative current.
func ExampleNewWorkload() {
	w, err := batlife.NewWorkload(
		[]batlife.StateSpec{
			{Name: "work", CurrentA: 0.100},
			{Name: "solar", CurrentA: -0.030},
		},
		[]batlife.TransitionSpec{
			{From: "work", To: "solar", RatePerSec: 1.0 / 600},
			{From: "solar", To: "work", RatePerSec: 1.0 / 600},
		},
		"work",
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	mean, err := w.MeanCurrent()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("mean net draw: %.0f mA\n", mean*1000)
	// Output:
	// mean net draw: 35 mA
}
