// Sensitivity study: sweep the deadline across its feasible range on both
// paper graphs and a synthetic layered graph, comparing the iterative
// algorithm against the baselines. This generalizes Table 4's three
// sample points into full curves (printed as CSV for plotting).
//
// Run with: go run ./examples/sensitivity
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	battsched "repro"
	"repro/internal/dvs"
	"repro/internal/taskgraph"
)

func main() {
	model := battsched.NewRakhmatov(battsched.DefaultBeta)

	// A synthetic 12-task layered graph with 4 design points, generated
	// with the paper's G3-style recipe.
	rng := rand.New(rand.NewSource(7))
	recipe := dvs.Recipe{Factors: []float64{1, 0.8, 0.6, 0.4}, Rule: dvs.TimeReversedLinear, Round: 1}
	points, err := recipe.PointsFunc(dvs.RandomRefs(rng, 12, 300, 900, 3, 9))
	if err != nil {
		log.Fatal(err)
	}
	layered, err := taskgraph.Layered(rng, 4, 3, 0.4, points)
	if err != nil {
		log.Fatal(err)
	}

	graphs := []struct {
		name string
		g    *battsched.Graph
	}{
		{"G2", battsched.G2()},
		{"G3", battsched.G3()},
		{"layered12", layered},
	}

	fmt.Println("graph,deadline,ours,baseline_rv,chowdhury,all_fastest,pct_ours_vs_rv")
	for _, tc := range graphs {
		lo, hi := tc.g.MinTotalTime()*1.02, tc.g.MaxTotalTime()*1.02
		for k := 0; k < 10; k++ {
			d := math.Round((lo+(hi-lo)*float64(k)/9)*10) / 10
			res, err := battsched.Run(context.Background(), tc.g, d, battsched.Options{})
			if err != nil {
				continue
			}
			rv, err := battsched.RunBaselineRV(tc.g, d)
			if err != nil {
				continue
			}
			ch, err := battsched.RunBaselineChowdhury(tc.g, d, nil)
			if err != nil {
				continue
			}
			fastCost := math.NaN()
			if fast := allFastest(tc.g); fast != nil && fast.Duration(tc.g) <= d {
				fastCost = fast.Cost(tc.g, model)
			}
			rvCost := rv.Cost(tc.g, model)
			fmt.Printf("%s,%.1f,%.0f,%.0f,%.0f,%.0f,%.1f\n",
				tc.name, d, res.Cost, rvCost, ch.Cost(tc.g, model), fastCost,
				(rvCost-res.Cost)/res.Cost*100)
		}
	}
}

func allFastest(g *battsched.Graph) *battsched.Schedule {
	s := &battsched.Schedule{Order: g.TopoOrder(), Assignment: map[int]int{}}
	for _, id := range g.TaskIDs() {
		s.Assignment[id] = 0
	}
	return s
}
