// FPGA platform example: the paper's other target hardware. Each task has
// several alternative bitstream implementations (more parallel = faster
// but hotter) instead of voltage levels, and the platform pays a
// reconfiguration cost between tasks. The battery-aware scheduler is
// platform-agnostic — it only sees (current, time) design points — so the
// same algorithm applies unchanged.
//
// Run with: go run ./examples/fpga
package main

import (
	"context"
	"fmt"
	"log"

	battsched "repro"
	"repro/internal/dvs"
)

func main() {
	// A 6-stage signal-processing chain on an FPGA. Per task: base
	// (fully sequential) implementation current/time, expanded into 4
	// bitstream variants (1x, 2x, 4x, 8x parallel). Parallel variants
	// run faster; current grows slightly slower than the speedup, so
	// energy gently improves with parallelism but the battery's
	// rate-capacity effect punishes the hot variants.
	stages := []struct {
		name  string
		baseI float64 // mA
		baseT float64 // min
	}{
		{"acquire", 60, 16},
		{"fir", 80, 24},
		{"fft", 95, 32},
		{"detect", 70, 12},
		{"classify", 85, 20},
		{"report", 40, 8},
	}
	var b battsched.Builder
	for k, st := range stages {
		pts, err := dvs.FPGAImplementations(st.baseI, st.baseT, 4, 2.0, 1.8)
		if err != nil {
			log.Fatal(err)
		}
		b.AddTask(k+1, st.name, pts...)
		if k > 0 {
			b.AddEdge(k, k+1)
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	const deadline = 60.0
	res, err := battsched.Run(context.Background(), g, deadline, battsched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FPGA chain, deadline %.0f min\n", deadline)
	fmt.Printf("chosen bitstreams: %s\n", res.Schedule)
	for _, id := range res.Schedule.Order {
		pt := g.Task(id).Points[res.Schedule.Assignment[id]]
		fmt.Printf("  %-9s -> %-5s  %5.1f mA  %5.1f min\n", g.Task(id).Name, pt.Name, pt.Current, pt.Time)
	}
	fmt.Printf("sigma %.0f mA·min, duration %.1f min\n\n", res.Cost, res.Duration)

	// Simulate with reconfiguration overhead: 0.2 min at 120 mA per
	// bitstream load (full-device configuration from flash).
	plat := battsched.Platform{
		PE:       battsched.FPGA{ReconfigTime: 0.2, ReconfigCurrent: 120},
		Model:    battsched.NewRakhmatov(battsched.DefaultBeta),
		Capacity: 30000,
	}
	sim, err := battsched.Simulate(plat, g, res.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with reconfiguration overhead: finish %.1f min, sigma %.0f mA·min, completed=%v\n",
		sim.FinishTime, sim.ChargeLost, sim.Completed)
	fmt.Printf("reconfiguration events: %d (one per task)\n", len(sim.Events)-g.N())

	// Compare against the all-parallel (fastest) configuration.
	fast := &battsched.Schedule{Order: res.Schedule.Order, Assignment: map[int]int{}}
	for _, id := range g.TaskIDs() {
		fast.Assignment[id] = 0
	}
	model := battsched.NewRakhmatov(battsched.DefaultBeta)
	fmt.Printf("\nall-8x-parallel schedule: sigma %.0f mA·min (%.1fx ours)\n",
		fast.Cost(g, model), fast.Cost(g, model)/res.Cost)
}
