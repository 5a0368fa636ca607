package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dvs"
	"repro/internal/taskgraph"
)

// scaleGraph builds the benchmark-shaped fork-join graph used by
// BenchmarkScalingTasks: n tasks across 4 branches, 5 paper-style design
// points each, seeded by n so the instance is stable across runs.
func scaleGraph(t testing.TB, n int) *taskgraph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	recipe := dvs.Recipe{Factors: dvs.G3Factors, Rule: dvs.TimeReversedLinear, Round: 1}
	points, err := recipe.PointsFunc(dvs.RandomRefs(rng, n, 300, 900, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	g, err := taskgraph.ForkJoin(4, (n-6)/4, 5, points)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEquivalenceLargeGraphs proves the scaled-up hot path — trajectory
// materialization, closed-form escalation state, incAtRank increase
// counts, bound skips — still reproduces the naive reference evaluator
// bit-for-bit on instances an order of magnitude past the paper's sizes
// (n = 160 and 320 tasks), at tight, medium and loose deadlines. This is
// the acceptance gate of the scaling work: exact mode means exact at
// every n, not just on the fixtures.
func TestEquivalenceLargeGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph reference sweeps are slow; skipped with -short")
	}
	for _, n := range []int{160, 320} {
		g := scaleGraph(t, n)
		lo, hi := g.MinTotalTime(), g.MaxTotalTime()
		for _, slack := range []float64{0.15, 0.5, 0.9} {
			d := lo + slack*(hi-lo)
			label := fmt.Sprintf("n=%d/slack=%g", n, slack)
			s := mustScheduler(t, g, d, Options{})
			ref, err := s.refRunContext(context.Background())
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, err := s.Run()
			if err != nil {
				t.Fatalf("%s: optimized: %v", label, err)
			}
			requireSameResult(t, label, ref, got)
		}
	}
}

// TestApproxZeroIsExact pins the contract that Approx: 0 — however it is
// spelled — is exact mode: bit-identical to the reference evaluator and
// to the default options on random instances.
func TestApproxZeroIsExact(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomEquivGraph(t, rng, 6+rng.Intn(18), 3)
		d := g.MinTotalTime() + 0.5*(g.MaxTotalTime()-g.MinTotalTime())
		want, err := mustScheduler(t, g, d, Options{}).Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := mustScheduler(t, g, d, Options{Approx: 0}).Run()
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("seed=%d", seed), want, got)
	}
}

// TestApproxEpsilonBound is the white-box quality proof of the documented
// approximation mode. The skipAudit hook receives every bound-skipped
// candidate with its certified lower bound (slack already subtracted),
// the running best suitability at skip time and the candidate's exact
// suitability, evaluated through the same batch folds. Three invariants
// must hold for every skip, at every epsilon:
//
//  1. soundness — the certified bound really is a lower bound:
//     exactB >= lb;
//  2. justification — the skip rule fired: lb >= bestB - eps;
//  3. quality — together, exactB >= bestB - eps: a skipped candidate can
//     beat the running minimum by at most eps, so the point chosen for
//     the position has suitability within eps of the position's true
//     minimum. This is Options.Approx's documented per-decision bound.
//
// At eps = 0 invariant 3 degenerates to exactB >= bestB — skips are
// provably behavior-preserving, which is what the bit-identity suites
// above observe from the outside.
func TestApproxEpsilonBound(t *testing.T) {
	for _, eps := range []float64{0, 0.01, 0.1, 1} {
		eps := eps
		t.Run(fmt.Sprintf("eps=%g", eps), func(t *testing.T) {
			skips := 0
			for seed := int64(1); seed <= 15; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := randomEquivGraph(t, rng, 8+rng.Intn(20), 2+rng.Intn(4))
				for _, slack := range []float64{0.2, 0.6} {
					d := g.MinTotalTime() + slack*(g.MaxTotalTime()-g.MinTotalTime())
					s := mustScheduler(t, g, d, Options{Approx: eps})
					s.skipAudit = func(pos, j int, lb, bestB, exactB float64) {
						skips++
						if exactB < lb {
							t.Fatalf("seed=%d d=%g pos=%d j=%d: unsound bound: exact B %v < certified lb %v",
								seed, d, pos, j, exactB, lb)
						}
						if lb < bestB-eps {
							t.Fatalf("seed=%d d=%g pos=%d j=%d: unjustified skip: lb %v < bestB %v - eps %v",
								seed, d, pos, j, lb, bestB, eps)
						}
						if exactB < bestB-eps {
							t.Fatalf("seed=%d d=%g pos=%d j=%d: quality violation: exact B %v < bestB %v - eps %v",
								seed, d, pos, j, exactB, bestB, eps)
						}
					}
					if _, err := s.Run(); err != nil {
						t.Fatalf("seed=%d d=%g: %v", seed, d, err)
					}
				}
			}
			if skips == 0 {
				t.Fatalf("eps=%g: no candidate was ever bound-skipped; the audit proved nothing", eps)
			}
		})
	}
}

// TestApproxEpsilonBoundLargeGraphs re-proves the per-skip invariants of
// TestApproxEpsilonBound on the large-graph corpus (the same n = 160 and
// 320 instances TestEquivalenceLargeGraphs pins bit-identical in exact
// mode), at the same three slack levels: soundness (exactB >= lb),
// justification (lb >= bestB - eps) and quality (exactB >= bestB - eps)
// must hold for every bound-skipped candidate at scale, where the skip
// machinery does its real work.
func TestApproxEpsilonBoundLargeGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph audit sweeps are slow; skipped with -short")
	}
	for _, n := range []int{160, 320} {
		g := scaleGraph(t, n)
		lo, hi := g.MinTotalTime(), g.MaxTotalTime()
		for _, eps := range []float64{0, 0.1} {
			eps := eps
			skips := 0
			for _, slack := range []float64{0.15, 0.5, 0.9} {
				d := lo + slack*(hi-lo)
				label := fmt.Sprintf("n=%d/eps=%g/slack=%g", n, eps, slack)
				s := mustScheduler(t, g, d, Options{Approx: eps})
				s.skipAudit = func(pos, j int, lb, bestB, exactB float64) {
					skips++
					if exactB < lb {
						t.Fatalf("%s pos=%d j=%d: unsound bound: exact B %v < certified lb %v",
							label, pos, j, exactB, lb)
					}
					if exactB < bestB-eps {
						t.Fatalf("%s pos=%d j=%d: quality violation: exact B %v < bestB %v - eps %v",
							label, pos, j, exactB, bestB, eps)
					}
				}
				if _, err := s.Run(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			if skips == 0 {
				t.Fatalf("n=%d eps=%g: no candidate was ever bound-skipped", n, eps)
			}
		}
	}
}

// TestApproxNeverWorseThanBound checks the end-to-end quality of the
// approximation mode on the benchmark-shaped instance: the approximate
// run must complete, stay deadline-feasible, and its final cost must stay
// finite and within a sane factor of the exact run's (the per-decision
// bound does not compose into a global additive one, but an approx run
// drifting far from exact would mean the mode is mis-wired, not merely
// approximate).
func TestApproxNeverWorseThanBound(t *testing.T) {
	g := scaleGraph(t, 80)
	d := g.MinTotalTime() + 0.6*(g.MaxTotalTime()-g.MinTotalTime())
	exact, err := mustScheduler(t, g, d, Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.01, 0.1, 1} {
		res, err := mustScheduler(t, g, d, Options{Approx: eps}).Run()
		if err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		if res.Duration > d+timeEps {
			t.Fatalf("eps=%g: approx schedule misses the deadline: %v > %v", eps, res.Duration, d)
		}
		if math.IsInf(res.Cost, 0) || math.IsNaN(res.Cost) || res.Cost <= 0 {
			t.Fatalf("eps=%g: approx cost is not a sane number: %v", eps, res.Cost)
		}
		if res.Cost > exact.Cost*1.5 {
			t.Fatalf("eps=%g: approx cost %v is wildly worse than exact %v", eps, res.Cost, exact.Cost)
		}
	}
}

// TestSweepRunnerMatchesNew proves that every entry point minted from one
// SchedulerBase leaves the base's shared state untouched: a deadline sweep
// in shuffled order, infeasible deadlines included, that interleaves
// Runner.Run with SchedulerBase.Scheduler(d).Run on the same base, is
// bit-identical at every step to constructing a fresh scheduler with New.
func TestSweepRunnerMatchesNew(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomEquivGraph(t, rng, 8+rng.Intn(16), 3)
		for _, opt := range []Options{{}, {Approx: 0.05}} {
			b, err := NewBase(g, opt)
			if err != nil {
				t.Fatalf("seed=%d: NewBase: %v", seed, err)
			}
			r := b.NewRunner()
			lo, hi := g.MinTotalTime(), g.MaxTotalTime()
			deadlines := []float64{lo * 0.5 /* infeasible */, hi * 1.2}
			for i := 0; i <= 8; i++ {
				deadlines = append(deadlines, lo+float64(i)/8*(hi-lo))
			}
			rng.Shuffle(len(deadlines), func(i, j int) {
				deadlines[i], deadlines[j] = deadlines[j], deadlines[i]
			})
			for step, d := range deadlines {
				label := fmt.Sprintf("seed=%d/approx=%g/step=%d/d=%g", seed, opt.Approx, step, d)
				want, wantErr := func() (*Result, error) {
					s, err := New(g, d, opt)
					if err != nil {
						return nil, err
					}
					return s.Run()
				}()
				for _, entry := range []struct {
					name string
					run  func() (*Result, error)
				}{
					{"Runner", func() (*Result, error) { return r.Run(context.Background(), d) }},
					{"base.Scheduler", func() (*Result, error) {
						s, err := b.Scheduler(d)
						if err != nil {
							return nil, err
						}
						return s.Run()
					}},
				} {
					got, gotErr := entry.run()
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s: error mismatch: New+Run %v, %s %v", label, wantErr, entry.name, gotErr)
					}
					if wantErr != nil {
						if wantErr.Error() != gotErr.Error() {
							t.Fatalf("%s: %s error text mismatch: %q vs %q", label, entry.name, wantErr, gotErr)
						}
						continue
					}
					requireSameResult(t, label+"/"+entry.name, want, got)
				}
			}
		}
	}
}

// TestRunnerMatchesNew proves the Runner's reuse path: for every
// deadline in a dense sweep, Runner.Run is bit-identical to constructing
// a fresh scheduler with New and calling Run — on repeated runs at one
// deadline (the steady state the zero-alloc benchmark measures), when
// the sweep revisits a deadline after others mutated the reused state,
// and across infeasible deadlines mid-sweep.
func TestRunnerMatchesNew(t *testing.T) {
	graphs := []struct {
		name string
		g    *taskgraph.Graph
	}{
		{"G2", taskgraph.G2()},
		{"G3", taskgraph.G3()},
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		graphs = append(graphs, struct {
			name string
			g    *taskgraph.Graph
		}{fmt.Sprintf("rand%d", seed), randomEquivGraph(t, rng, 8+rng.Intn(16), 3)})
	}
	for _, opt := range []Options{{}, {Approx: 0.05}} {
		for _, gc := range graphs {
			r := mustRunner(t, gc.g, opt)
			lo, hi := gc.g.MinTotalTime(), gc.g.MaxTotalTime()
			var deadlines []float64
			for i := 0; i <= 12; i++ {
				deadlines = append(deadlines, lo+float64(i)/12*(hi-lo))
			}
			// Revisit an early deadline at the end: the runner's reused
			// state must not have drifted.
			deadlines = append(deadlines, lo+0.25*(hi-lo), lo*0.5 /* infeasible */, hi*1.2)
			for _, d := range deadlines {
				label := fmt.Sprintf("%s/approx=%g/d=%g", gc.name, opt.Approx, d)
				want, wantErr := func() (*Result, error) {
					s, err := New(gc.g, d, opt)
					if err != nil {
						return nil, err
					}
					return s.Run()
				}()
				for pass := 1; pass <= 3; pass++ {
					passLabel := fmt.Sprintf("%s/pass=%d", label, pass)
					got, gotErr := r.Run(context.Background(), d)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s: error mismatch: New+Run %v, Runner %v", passLabel, wantErr, gotErr)
					}
					if wantErr != nil {
						if wantErr.Error() != gotErr.Error() {
							t.Fatalf("%s: error text mismatch: %q vs %q", passLabel, wantErr, gotErr)
						}
						continue
					}
					requireSameResult(t, passLabel, want, got)
				}
			}
		}
	}
}
