// End-to-end calibration workflow: start from datasheet-style
// constant-current lifetime measurements, fit the Rakhmatov model's
// (capacity, beta), then schedule an application against the *calibrated*
// battery and check the mission actually fits the measured pack.
//
// This is the step the paper assumes has already happened ("it is assumed
// that performance and total power consumption estimates are available");
// here it is shown explicitly so the library is usable on a real device.
//
// Run with: go run ./examples/calibrate
package main

import (
	"context"
	"fmt"
	"log"

	battsched "repro"
)

func main() {
	// 1. Bench measurements of the battery pack: current -> lifetime.
	// (Synthesized here from a beta=0.35, 50 Ah·min-class pack with ±3%
	// noise, playing the role of lab data.)
	obs := []battsched.Observation{
		{Current: 100, Lifetime: 478.0},
		{Current: 200, Lifetime: 228.9},
		{Current: 400, Lifetime: 106.4},
		{Current: 800, Lifetime: 45.9},
	}
	alpha, beta, err := battsched.FitRakhmatov(obs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated battery: alpha = %.0f mA·min, beta = %.3f min^-1/2\n\n", alpha, beta)

	// The same calibration as a declarative spec: kind "calibrated"
	// carries the raw measurements and runs the identical fit at
	// resolve time — so the scheduler below, a battbatch job line, or
	// an HTTP request ({"battery":{"kind":"calibrated",...}}) all cost
	// schedules against this exact pack, cacheably.
	spec := battsched.BatterySpec{Kind: battsched.BatteryKindCalibrated, Observations: obs}

	// 2. The application: a sense→process→transmit pipeline that must
	// repeat every 25 minutes — tight enough that the schedule needs the
	// faster, hotter design points.
	var b battsched.Builder
	b.AddTask(1, "sense",
		battsched.DesignPoint{Current: 420, Time: 6},
		battsched.DesignPoint{Current: 180, Time: 10},
		battsched.DesignPoint{Current: 60, Time: 17})
	b.AddTask(2, "process",
		battsched.DesignPoint{Current: 640, Time: 8},
		battsched.DesignPoint{Current: 270, Time: 13},
		battsched.DesignPoint{Current: 95, Time: 22})
	b.AddTask(3, "transmit",
		battsched.DesignPoint{Current: 510, Time: 4},
		battsched.DesignPoint{Current: 215, Time: 6.5},
		battsched.DesignPoint{Current: 75, Time: 11})
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 3. Schedule against the calibrated model — through the validated
	// spec path, the same construction every other front end uses.
	const period = 25.0
	res, err := battsched.Run(context.Background(), g, period, battsched.Options{Battery: &spec})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: %s\n", res.Schedule)
	fmt.Printf("per run:  %.1f min, sigma %.0f mA·min on the calibrated pack\n\n", res.Duration, res.Cost)

	// 4. How many mission cycles does the measured pack deliver? The
	// simulator's model resolves from the same spec, so planning and
	// simulation cannot drift apart.
	model, err := spec.Resolve()
	if err != nil {
		log.Fatal(err)
	}
	plat := battsched.Platform{Model: model, Capacity: alpha}
	runs, diedAt, err := battsched.MissionCycles(plat, g, res.Schedule, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mission cycles on the calibrated pack: %d (battery dies at %.0f min)\n", runs, diedAt)

	// Compare with planning on an idealized battery of the same rating:
	// the ideal plan overpromises.
	idealRuns, _, err := battsched.MissionCycles(battsched.Platform{Model: battsched.Ideal{}, Capacity: alpha}, g, res.Schedule, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("an ideal-battery plan would promise %d cycles — %.0f%% over-commitment\n",
		idealRuns, (float64(idealRuns)/float64(runs)-1)*100)
}
