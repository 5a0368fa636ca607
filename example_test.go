package battsched_test

import (
	"context"
	"fmt"

	battsched "repro"
)

// ExampleRun schedules a two-task pipeline battery-aware.
func ExampleRun() {
	var b battsched.Builder
	b.AddTask(1, "sense",
		battsched.DesignPoint{Current: 500, Time: 2},
		battsched.DesignPoint{Current: 100, Time: 5})
	b.AddTask(2, "transmit",
		battsched.DesignPoint{Current: 400, Time: 1},
		battsched.DesignPoint{Current: 80, Time: 3})
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	res, err := battsched.Run(context.Background(), g, 8, battsched.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Schedule)
	fmt.Printf("duration %.0f min\n", res.Duration)
	// Output:
	// T1@DP2 T2@DP2
	// duration 8 min
}

// ExampleNewRakhmatov evaluates the paper's battery model on a simple
// burst-then-rest profile, showing the recovery effect.
func ExampleNewRakhmatov() {
	m := battsched.NewRakhmatov(battsched.DefaultBeta)
	p := battsched.Profile{
		{Current: 400, Duration: 10}, // burst
		{Current: 0, Duration: 30},   // rest
	}
	atBurstEnd := m.ChargeLost(p, 10)
	atRestEnd := m.ChargeLost(p, 40)
	fmt.Printf("delivered: %.0f mA·min\n", p.DeliveredCharge(40))
	fmt.Println("burst end > rest end:", atBurstEnd > atRestEnd)
	// Output:
	// delivered: 4000 mA·min
	// burst end > rest end: true
}

// ExampleRunWithIdle spends leftover deadline slack as recovery rest.
func ExampleRunWithIdle() {
	var b battsched.Builder
	b.AddTask(1, "burst", battsched.DesignPoint{Current: 900, Time: 10})
	b.AddTask(2, "tail", battsched.DesignPoint{Current: 50, Time: 10})
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	// Single design points: the deadline slack (40 min) can only be
	// spent as rest between the burst and the tail.
	_, plan, err := battsched.RunWithIdle(g, 60, battsched.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("rest placed: %.0f min\n", plan.TotalIdle())
	fmt.Println("sigma reduced:", plan.Cost < plan.BaseCost)
	// Output:
	// rest placed: 40 min
	// sigma reduced: true
}

// ExampleRunCached runs the same request twice through a result cache:
// the second call is answered from memory (a hit) with the identical
// schedule — the amortization battschedd serves over HTTP.
func ExampleRunCached() {
	c := battsched.NewCache(0) // 0 = default 1024-entry bound
	g := battsched.G3()

	first, err := battsched.RunCached(context.Background(), c, g, 230, battsched.Options{})
	if err != nil {
		panic(err)
	}
	second, err := battsched.RunCached(context.Background(), c, g, 230, battsched.Options{})
	if err != nil {
		panic(err)
	}

	st := c.Stats()
	fmt.Printf("misses %d, hits %d\n", st.Misses, st.Hits)
	fmt.Println("identical cost:", first.Cost == second.Cost)
	// Output:
	// misses 1, hits 1
	// identical cost: true
}

// ExampleRunBatchCached pushes a batch with repeated jobs through a
// shared cache: duplicates compute once, and the results are identical
// to RunBatch's.
func ExampleRunBatchCached() {
	c := battsched.NewCache(0)
	jobs := []battsched.BatchJob{
		{Name: "a", Graph: battsched.G3(), Deadline: 230},
		{Name: "duplicate-of-a", Graph: battsched.G3(), Deadline: 230},
		{Name: "b", Graph: battsched.G2(), Deadline: 75},
	}
	results := battsched.RunBatchCached(context.Background(), c, jobs, 1)
	for _, r := range results {
		if r.Err != nil {
			panic(r.Err)
		}
	}
	fmt.Println("same cost:", results[0].Cost == results[1].Cost)

	// A second batch over the same cache answers entirely from memory.
	again := battsched.RunBatchCached(context.Background(), c, jobs, 2)
	st := c.Stats()
	fmt.Printf("computed %d unique jobs for %d requests\n", st.Misses, st.Misses+st.Hits+st.Dedups)
	fmt.Println("stable:", again[2].Cost == results[2].Cost)
	// Output:
	// same cost: true
	// computed 2 unique jobs for 6 requests
	// stable: true
}

// ExampleRunBaselineRV compares the paper's algorithm with the
// reference-[1] baseline on the paper's G3 benchmark.
func ExampleRunBaselineRV() {
	g := battsched.G3()
	m := battsched.NewRakhmatov(battsched.DefaultBeta)
	ours, err := battsched.Run(context.Background(), g, 150, battsched.Options{})
	if err != nil {
		panic(err)
	}
	base, err := battsched.RunBaselineRV(g, 150)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ours: %.0f mA·min, baseline: %.0f mA·min\n", ours.Cost, base.Cost(g, m))
	// Output:
	// ours: 41801 mA·min, baseline: 48650 mA·min
}
