package battsched_test

import (
	"context"
	"errors"
	"math"
	"testing"

	battsched "repro"
)

func smallGraph(t *testing.T) *battsched.Graph {
	t.Helper()
	var b battsched.Builder
	b.AddTask(1, "a",
		battsched.DesignPoint{Current: 500, Time: 2},
		battsched.DesignPoint{Current: 100, Time: 5})
	b.AddTask(2, "b",
		battsched.DesignPoint{Current: 400, Time: 1},
		battsched.DesignPoint{Current: 80, Time: 3})
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeRun(t *testing.T) {
	g := smallGraph(t)
	res, err := battsched.Run(context.Background(), g, 8, battsched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.ValidateDeadline(g, 8); err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 || res.Duration <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// Both tasks should be at their lowest-power point at this loose
	// deadline (5 + 3 = 8).
	if res.Schedule.Assignment[1] != 1 || res.Schedule.Assignment[2] != 1 {
		t.Fatalf("assignment = %v", res.Schedule.Assignment)
	}
}

func TestFacadeRunner(t *testing.T) {
	g := battsched.G3()
	r, err := battsched.NewRunner(g, battsched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, d := range []float64{230, 150} {
			want, err := battsched.Run(context.Background(), g, d, battsched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != want.Cost || res.Iterations != want.Iterations {
				t.Fatalf("pass %d, deadline %g: runner result %+v != Run's %+v", pass, d, res, want)
			}
			if err := res.Schedule.ValidateDeadline(g, d); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFacadeInfeasible(t *testing.T) {
	g := smallGraph(t)
	if _, err := battsched.Run(context.Background(), g, 2.5, battsched.Options{}); !errors.Is(err, battsched.ErrDeadlineInfeasible) {
		t.Fatalf("want ErrDeadlineInfeasible, got %v", err)
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := smallGraph(t)
	rv, err := battsched.RunBaselineRV(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := rv.ValidateDeadline(g, 8); err != nil {
		t.Fatal(err)
	}
	ch, err := battsched.RunBaselineChowdhury(g, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.ValidateDeadline(g, 8); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFixtures(t *testing.T) {
	if battsched.G2().N() != 9 || battsched.G3().N() != 15 {
		t.Fatal("fixtures wrong size")
	}
	if len(battsched.G2Deadlines()) != 3 || len(battsched.G3Deadlines()) != 3 {
		t.Fatal("deadline lists wrong")
	}
	// Returned slices are copies.
	ds := battsched.G2Deadlines()
	ds[0] = -1
	if battsched.G2Deadlines()[0] == -1 {
		t.Fatal("G2Deadlines leaks internal state")
	}
	if battsched.G3Deadline != 230 {
		t.Fatal("G3Deadline wrong")
	}
}

func TestFacadeBatteryAndLifetime(t *testing.T) {
	m := battsched.NewRakhmatov(battsched.DefaultBeta)
	p := battsched.Profile{{Current: 100, Duration: 10}}
	sigma := m.ChargeLost(p, 10)
	if sigma <= 1000 {
		t.Fatalf("sigma = %g, want > delivered 1000", sigma)
	}
	if tDie, died := battsched.Lifetime(m, p, sigma/2); !died || tDie <= 0 || tDie >= 10 {
		t.Fatalf("lifetime = %g, %v", tDie, died)
	}
}

func TestFacadeSimulate(t *testing.T) {
	g := smallGraph(t)
	res, err := battsched.Run(context.Background(), g, 8, battsched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := battsched.Simulate(battsched.Platform{Capacity: math.Inf(1)}, g, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !simRes.Completed || math.Abs(simRes.FinishTime-res.Duration) > 1e-9 {
		t.Fatalf("sim = %+v vs duration %g", simRes, res.Duration)
	}
	runs, _, err := battsched.MissionCycles(battsched.Platform{Capacity: 5000}, g, res.Schedule, 50)
	if err != nil {
		t.Fatal(err)
	}
	if runs < 1 {
		t.Fatalf("mission cycles = %d", runs)
	}
}

func TestFacadeRunWithIdle(t *testing.T) {
	g := battsched.G3()
	deadline := g.MaxTotalTime() * 1.2
	res, plan, err := battsched.RunWithIdle(g, deadline, battsched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost > plan.BaseCost {
		t.Fatalf("idle raised cost: %f > %f", plan.Cost, plan.BaseCost)
	}
	if plan.TotalIdle() <= 0 {
		t.Fatal("loose deadline should place rest")
	}
	// The padded profile must run on a simulated platform.
	p := plan.Apply(g, res.Schedule)
	simRes, err := battsched.SimulateProfile(battsched.Platform{Capacity: math.Inf(1)}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !simRes.Completed || math.Abs(simRes.ChargeLost-plan.Cost) > 1e-6 {
		t.Fatalf("sim disagrees with plan: %+v vs %f", simRes, plan.Cost)
	}
}

func TestFacadeMultiStart(t *testing.T) {
	g := battsched.G2()
	base, err := battsched.Run(context.Background(), g, 75, battsched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := battsched.RunMultiStart(context.Background(), g, 75, battsched.Options{}, battsched.MultiStartOptions{Restarts: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cost > base.Cost+1e-9 {
		t.Fatalf("multi-start worse than base: %f vs %f", multi.Cost, base.Cost)
	}
}

func TestFacadeRunBatch(t *testing.T) {
	jobs := []battsched.BatchJob{
		{Name: "iter", Graph: battsched.G3(), Deadline: battsched.G3Deadline},
		{Name: "ms", Graph: battsched.G2(), Deadline: 75, Strategy: "multistart",
			MultiStart: battsched.MultiStartOptions{Restarts: 4, Seed: 1}},
		{Name: "bad", Graph: battsched.G3(), Deadline: 1},
	}
	results := battsched.RunBatch(context.Background(), jobs, 0)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("good jobs failed: %v / %v", results[0].Err, results[1].Err)
	}
	if results[0].Cost <= 0 || results[1].Cost <= 0 {
		t.Fatal("non-positive batch costs")
	}
	if !errors.Is(results[2].Err, battsched.ErrDeadlineInfeasible) {
		t.Fatalf("bad job error = %v", results[2].Err)
	}
	if len(battsched.BatchStrategies()) < 7 {
		t.Fatalf("strategies = %v", battsched.BatchStrategies())
	}
}

// TestFacadeCanceled: a canceled ctx reaches every context-taking run
// function, and the error each reports — returned, or as a per-job Err
// — matches context.Canceled whichever layer noticed it. The batch and
// cached paths also match ErrCanceled, and store nothing.
func TestFacadeCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := battsched.G3()
	opt := battsched.Options{}
	ms := battsched.MultiStartOptions{Restarts: 2, Seed: 1}
	jobs := []battsched.BatchJob{
		{Name: "iter", Graph: g, Deadline: battsched.G3Deadline},
		{Name: "ms", Graph: g, Deadline: 150, Strategy: "multistart", MultiStart: ms},
		{Name: "rv", Graph: g, Deadline: 150, Strategy: "rv-dp"},
	}
	canceled := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want a match for context.Canceled", what, err)
		}
	}

	_, err := battsched.Run(ctx, g, battsched.G3Deadline, opt)
	canceled("Run", err)
	_, err = battsched.RunMultiStart(ctx, g, battsched.G3Deadline, opt, ms)
	canceled("RunMultiStart", err)
	c := battsched.NewCache(0)
	_, err = battsched.RunCached(ctx, c, g, battsched.G3Deadline, opt)
	canceled("RunCached", err)
	if !errors.Is(err, battsched.ErrCanceled) {
		t.Errorf("RunCached: err = %v, want ErrCanceled", err)
	}
	for _, r := range battsched.RunBatch(ctx, jobs, 2) {
		canceled("RunBatch job "+r.Name, r.Err)
	}
	for _, r := range battsched.RunBatchCached(ctx, c, jobs, 2) {
		canceled("RunBatchCached job "+r.Name, r.Err)
		if !errors.Is(r.Err, battsched.ErrCanceled) || r.Schedule != nil {
			t.Errorf("RunBatchCached job %s: %+v, want ErrCanceled and no schedule", r.Name, r)
		}
	}
	if n := c.Len(); n != 0 {
		t.Errorf("canceled runs stored %d cache entries, want 0", n)
	}
}

func TestFacadeFitAndModels(t *testing.T) {
	m := battsched.NewRakhmatov(0.3)
	var obs []battsched.Observation
	for _, i := range []float64{100, 300, 900} {
		p := battsched.Profile{{Current: i, Duration: 1e6}}
		life, died := battsched.Lifetime(m, p, 20000)
		if !died {
			t.Fatal("setup: battery should die")
		}
		obs = append(obs, battsched.Observation{Current: i, Lifetime: life})
	}
	alpha, beta, err := battsched.FitRakhmatov(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta-0.3) > 0.01 || math.Abs(alpha-20000) > 300 {
		t.Fatalf("fit = (%g, %g), want (20000, 0.3)", alpha, beta)
	}
	// The other models are constructible through the facade.
	kb := battsched.NewKiBaM(20000, 0.6, 0.05)
	pk := battsched.NewPeukert(1.2, 100)
	p := battsched.Profile{{Current: 200, Duration: 10}}
	if kb.ChargeLost(p, 10) <= 0 || pk.ChargeLost(p, 10) <= 0 {
		t.Fatal("facade models broken")
	}
}

// TestFacadePaperHeadline is the end-to-end acceptance test: on the
// paper's own benchmarks the iterative algorithm must beat the
// reference-[1] baseline at five of six deadlines and never lose by more
// than 3% (the paper's Table 4 shows wins everywhere; our G2
// reconstruction concedes at most the near-tie at deadline 75).
func TestFacadePaperHeadline(t *testing.T) {
	m := battsched.NewRakhmatov(battsched.DefaultBeta)
	wins := 0
	total := 0
	for _, tc := range []struct {
		g  *battsched.Graph
		ds []float64
	}{
		{battsched.G2(), battsched.G2Deadlines()},
		{battsched.G3(), battsched.G3Deadlines()},
	} {
		for _, d := range tc.ds {
			total++
			res, err := battsched.Run(context.Background(), tc.g, d, battsched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			base, err := battsched.RunBaselineRV(tc.g, d)
			if err != nil {
				t.Fatal(err)
			}
			bc := base.Cost(tc.g, m)
			if res.Cost <= bc {
				wins++
			}
			if res.Cost > bc*1.03 {
				t.Errorf("lost to baseline by >3%% at deadline %g: %.0f vs %.0f", d, res.Cost, bc)
			}
		}
	}
	if wins < 5 {
		t.Errorf("won only %d of %d cells; paper wins all 6", wins, total)
	}
}

// TestFacadeBatterySpec covers the declarative battery surface: parsing
// the -battery flag syntax, running under a spec, the default spec's
// equivalence to zero options, and cached spec jobs.
func TestFacadeBatterySpec(t *testing.T) {
	g := smallGraph(t)

	spec, err := battsched.ParseBatterySpec("kibam,capacity=5000,c=0.5,rate=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != battsched.BatteryKindKiBaM {
		t.Fatalf("parsed kind %q", spec.Kind)
	}
	res, err := battsched.Run(context.Background(), g, 8, battsched.Options{Battery: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 {
		t.Fatalf("kibam cost %g", res.Cost)
	}

	// The default spec reproduces the zero-options run bit-for-bit.
	def := battsched.DefaultBatterySpec()
	viaSpec, err := battsched.Run(context.Background(), g, 8, battsched.Options{Battery: &def})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := battsched.Run(context.Background(), g, 8, battsched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(viaSpec.Cost) != math.Float64bits(plain.Cost) {
		t.Fatalf("default spec cost %x != zero-options cost %x",
			math.Float64bits(viaSpec.Cost), math.Float64bits(plain.Cost))
	}

	// Spec jobs cache: second identical cached run is served from
	// memory (stats show the hit) with an equal result.
	c := battsched.NewCache(0)
	first, err := battsched.RunCached(context.Background(), c, g, 8, battsched.Options{Battery: &spec})
	if err != nil {
		t.Fatal(err)
	}
	second, err := battsched.RunCached(context.Background(), c, g, 8, battsched.Options{Battery: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cost != second.Cost {
		t.Fatalf("cached spec run differs: %g vs %g", first.Cost, second.Cost)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Bypasses != 0 {
		t.Fatalf("spec job must cache (1 hit / 1 miss / 0 bypasses), got %+v", st)
	}

	if kinds := battsched.BatterySpecKinds(); len(kinds) != 5 {
		t.Fatalf("kinds = %v", kinds)
	}
	if _, err := battsched.ParseBatterySpec("hamster-wheel"); err == nil {
		t.Fatal("unknown kind must fail to parse")
	}
}
