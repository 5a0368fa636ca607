// One application, four batteries: schedule the paper's G3 fork-join
// graph under every declarative battery-model kind and compare what
// each model believes the schedule costs and how long the pack lasts
// when the mission repeats.
//
// The point of the comparison: the scheduler is battery-model-parametric
// (core.Options.Battery), so the same engine serves Rakhmatov-style
// diffusion packs, Peukert-style rate-penalty packs and KiBaM two-well
// packs — and the chosen schedule can differ, because each model
// rewards different load shapes (the ideal model is indifferent to
// order, Peukert punishes high currents, Rakhmatov and KiBaM also
// reward recovery rests).
//
// Run with: go run ./examples/modelcompare
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	battsched "repro"
	"repro/internal/report"
)

func main() {
	g := battsched.G3()
	const deadline = battsched.G3Deadline
	// One pack rating shared by every model so the lifetime columns
	// compare like for like (mA·min; roughly 2x one mission's charge).
	const alpha = 60000.0

	specs := []battsched.BatterySpec{
		{Kind: battsched.BatteryKindRakhmatov}, // paper default: beta 0.273, 10 terms
		{Kind: battsched.BatteryKindIdeal},
		{Kind: battsched.BatteryKindPeukert, Exponent: 1.2, RefCurrent: 100},
		{Kind: battsched.BatteryKindKiBaM, Capacity: alpha, WellFraction: 0.5, RateConstant: 0.05},
	}

	table := report.Table{
		Title:   fmt.Sprintf("G3 (deadline %.0f min) under every battery-model kind, pack %.0f mA·min", float64(deadline), alpha),
		Headers: []string{"model", "sigma", "duration", "energy", "iters", "cycles", "dies at", "schedule"},
		Notes: []string{
			"sigma/energy in mA·min, duration/dies-at in minutes; cycles = complete missions before the pack dies",
			"every row is one -battery flag away on battsched/battbatch/battschedd, and fully cacheable",
		},
	}
	for i := range specs {
		spec := specs[i]
		res, err := battsched.Run(context.Background(), g, deadline, battsched.Options{Battery: &spec})
		if err != nil {
			log.Fatalf("%s: %v", spec, err)
		}
		model, err := spec.Resolve()
		if err != nil {
			log.Fatal(err)
		}
		cycles, diedAt, err := battsched.MissionCycles(
			battsched.Platform{Model: model, Capacity: alpha}, g, res.Schedule, 1000)
		if err != nil {
			log.Fatal(err)
		}
		table.AddRow(
			model.Name(),
			report.F0(res.Cost),
			report.F1(res.Duration),
			report.F0(res.Energy),
			res.Iterations,
			cycles,
			report.F1(diedAt),
			report.DPs(res.Schedule.Order, res.Schedule.Assignment),
		)
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
