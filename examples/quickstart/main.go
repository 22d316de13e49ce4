// Quickstart: build a tiny directional charger network by hand, schedule
// it with the centralized offline algorithm and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"haste"
)

func main() {
	// Two chargers guarding a corridor and three rechargeable devices.
	// Distances in meters, energies in joules, angles in radians, one
	// time slot = one minute.
	in := &haste.Instance{
		Chargers: []haste.Charger{
			{ID: 0, Pos: haste.Point{X: 0, Y: 0}},
			{ID: 1, Pos: haste.Point{X: 30, Y: 0}},
		},
		Tasks: []haste.Task{
			// A sensor between the chargers, facing charger 0.
			{ID: 0, Pos: haste.Point{X: 12, Y: 1}, Phi: math.Pi,
				Release: 0, End: 20, Energy: 4000, Weight: 1.0 / 3},
			// A sensor above charger 0, facing down at it.
			{ID: 1, Pos: haste.Point{X: 1, Y: 14}, Phi: -math.Pi / 2,
				Release: 5, End: 25, Energy: 3000, Weight: 1.0 / 3},
			// A sensor left of charger 1, facing it.
			{ID: 2, Pos: haste.Point{X: 18, Y: -2}, Phi: 0,
				Release: 10, End: 30, Energy: 5000, Weight: 1.0 / 3},
		},
		Params: haste.Params{
			Alpha: 10000, Beta: 40, Radius: 20,
			ChargeAngle:  haste.Deg(60),
			ReceiveAngle: haste.Deg(120),
			SlotSeconds:  60,
			Rho:          1.0 / 12, // 5 s of a 1-min slot lost per rotation
			Tau:          1,
		},
	}

	p, err := haste.NewProblem(in)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("dominant task sets per charger (Algorithm 1):")
	for i, gamma := range p.Gamma() {
		fmt.Printf("  charger %d: %v\n", i, gamma)
	}

	// Schedule offline with the default color count (C = 1, the locally
	// greedy scheduler) and simulate the execution with switching delay.
	res := haste.ScheduleOffline(p, haste.DefaultOptions(1))
	out := haste.Simulate(p, res.Schedule)

	fmt.Printf("\nrelaxed objective (HASTE-R): %.4f\n", res.RUtility)
	fmt.Printf("physical utility (with ρ):   %.4f over %d switches\n", out.Utility, out.Switches)
	for j, t := range in.Tasks {
		fmt.Printf("  task %d: harvested %6.0f J of %6.0f J → utility %.3f\n",
			j, out.Energy[j], t.Energy, out.PerTask[j])
	}

	// The theoretical floor from Theorem 5.1: (1−ρ)(1−1/e) of optimum,
	// and the relaxed objective upper-bounds the optimum here.
	fmt.Printf("\nguarantee check: physical ≥ (1−ρ)·relaxed? %.4f ≥ %.4f\n",
		out.Utility, (1-in.Params.Rho)*res.RUtility)
}
