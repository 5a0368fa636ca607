// Quickstart: build a small application graph, schedule it battery-aware,
// and compare against naive scheduling.
//
// The application is a four-stage media pipeline on a DVS processor:
// capture → {filter, analyze} → encode. Every task has three
// voltage/frequency design points (fast/hot to slow/cool).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	battsched "repro"
)

func main() {
	var b battsched.Builder
	b.AddTask(1, "capture",
		battsched.DesignPoint{Current: 620, Time: 1.5, Name: "1.8V"},
		battsched.DesignPoint{Current: 260, Time: 2.4, Name: "1.3V"},
		battsched.DesignPoint{Current: 90, Time: 4.0, Name: "0.9V"})
	b.AddTask(2, "filter",
		battsched.DesignPoint{Current: 710, Time: 2.0, Name: "1.8V"},
		battsched.DesignPoint{Current: 300, Time: 3.2, Name: "1.3V"},
		battsched.DesignPoint{Current: 105, Time: 5.3, Name: "0.9V"})
	b.AddTask(3, "analyze",
		battsched.DesignPoint{Current: 480, Time: 1.2, Name: "1.8V"},
		battsched.DesignPoint{Current: 205, Time: 1.9, Name: "1.3V"},
		battsched.DesignPoint{Current: 70, Time: 3.2, Name: "0.9V"})
	b.AddTask(4, "encode",
		battsched.DesignPoint{Current: 840, Time: 2.6, Name: "1.8V"},
		battsched.DesignPoint{Current: 355, Time: 4.2, Name: "1.3V"},
		battsched.DesignPoint{Current: 125, Time: 7.0, Name: "0.9V"})
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	const deadline = 12.0 // minutes — tight: only ~23% slack over the fastest schedule
	res, err := battsched.Run(context.Background(), g, deadline, battsched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	model := battsched.NewRakhmatov(battsched.DefaultBeta)

	fmt.Println("== battery-aware schedule (this paper's algorithm) ==")
	fmt.Printf("order+points: %s\n", res.Schedule)
	fmt.Printf("duration:     %.1f min (deadline %.0f)\n", res.Duration, deadline)
	fmt.Printf("battery cost: %.0f mA·min (sigma), energy %.0f mA·min\n\n", res.Cost, res.Energy)

	// Naive comparison 1: run everything at full speed.
	fast := &battsched.Schedule{Order: g.TopoOrder(), Assignment: map[int]int{1: 0, 2: 0, 3: 0, 4: 0}}
	fmt.Println("== all-fastest (battery-unaware) ==")
	fmt.Printf("battery cost: %.0f mA·min\n\n", fast.Cost(g, model))

	// Naive comparison 2: minimum-energy DP baseline (reference [1]).
	base, err := battsched.RunBaselineRV(g, deadline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== min-energy DP + Eq.5 sequencing (baseline [1]) ==")
	fmt.Printf("battery cost: %.0f mA·min\n\n", base.Cost(g, model))

	saving := (fast.Cost(g, model) - res.Cost) / fast.Cost(g, model) * 100
	fmt.Printf("battery-aware scheduling saves %.1f%% of apparent charge vs all-fastest\n", saving)
	fmt.Println()
	fmt.Println("(at this tight deadline the iterative algorithm finds the true optimum — verify")
	fmt.Println(" with internal/baseline.Optimal; at looser deadlines the two heuristics trade")
	fmt.Println(" places on tiny graphs, and the gap widens again on the paper-sized ones)")
}
