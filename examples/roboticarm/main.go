// Robotic arm controller case study (the paper's Section 5, graph G2):
// schedule the 9-task controller at the paper's three deadlines, compare
// with the reference-[1] baseline, then put the schedules on a simulated
// battery-powered platform and count how many control missions a finite
// battery supports under each policy.
//
// Run with: go run ./examples/roboticarm
package main

import (
	"context"
	"fmt"
	"log"

	battsched "repro"
)

func main() {
	g := battsched.G2()
	model := battsched.NewRakhmatov(battsched.DefaultBeta)

	fmt.Println("G2: robotic arm controller, 9 tasks x 4 design points")
	fmt.Printf("fastest completion %.1f min, slowest %.1f min\n\n", g.MinTotalTime(), g.MaxTotalTime())

	fmt.Println("deadline   ours(sigma)   baseline[1]   % diff   paper: ours/[1]")
	paper := map[float64][2]float64{55: {30913, 35739}, 75: {13751, 13885}, 95: {7961, 8517}}
	var best *battsched.Schedule
	for _, d := range battsched.G2Deadlines() {
		res, err := battsched.Run(context.Background(), g, d, battsched.Options{})
		if err != nil {
			log.Fatal(err)
		}
		base, err := battsched.RunBaselineRV(g, d)
		if err != nil {
			log.Fatal(err)
		}
		bc := base.Cost(g, model)
		fmt.Printf("%7.0f    %9.0f    %9.0f    %5.1f    %6.0f/%.0f\n",
			d, res.Cost, bc, (bc-res.Cost)/res.Cost*100, paper[d][0], paper[d][1])
		if d == 75 {
			best = res.Schedule
		}
	}

	// Mission-cycle analysis at the middle deadline: how many complete
	// control runs fit on a 60 Ah·min-class battery pack?
	const capacity = 120000.0 // mA·min
	platform := battsched.Platform{Model: model, Capacity: capacity}
	naive := &battsched.Schedule{Order: g.TopoOrder(), Assignment: map[int]int{}}
	for _, id := range g.TaskIDs() {
		naive.Assignment[id] = 0 // all-fastest
	}
	oursRuns, oursDied, err := battsched.MissionCycles(platform, g, best, 100)
	if err != nil {
		log.Fatal(err)
	}
	naiveRuns, naiveDied, err := battsched.MissionCycles(platform, g, naive, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmission cycles on a %.0f mA·min battery (deadline 75):\n", capacity)
	fmt.Printf("  battery-aware: %d full runs (dies at %.0f min)\n", oursRuns, oursDied)
	fmt.Printf("  all-fastest:   %d full runs (dies at %.0f min)\n", naiveRuns, naiveDied)

	// Simulate one run with explicit DVS switch overheads (a
	// pessimistic 0.01-minute re-lock at 50 mA) to confirm the
	// analytical schedule survives a non-ideal platform — the paper
	// folds this overhead into the per-task estimates.
	simRes, err := battsched.Simulate(battsched.Platform{
		PE:       battsched.CPU{SwitchTime: 0.01, SwitchCurrent: 50},
		Model:    model,
		Capacity: capacity,
	}, g, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated single run with DVS switch overhead: finish %.2f min, sigma %.0f mA·min, %d events, completed=%v\n",
		simRes.FinishTime, simRes.ChargeLost, len(simRes.Events), simRes.Completed)
}
