package engine

import (
	"math"
	"testing"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/taskgraph"
)

// TestBaseCacheSharesSweeps proves the batch-level base sharing is
// result-neutral: a deadline sweep run as one batch — where every job
// shares one lazily-built SchedulerBase — is bit-identical to running
// each job through a fresh core.New, across strategies and worker
// counts.
func TestBaseCacheSharesSweeps(t *testing.T) {
	g := taskgraph.G3()
	lo, hi := g.MinTotalTime(), g.MaxTotalTime()
	var jobs []Job
	for i := 0; i <= 10; i++ {
		d := lo + float64(i)/10*(hi-lo)
		jobs = append(jobs,
			Job{Graph: g, Deadline: d, Strategy: StrategyIterative},
			Job{Graph: g, Deadline: d, Strategy: StrategyWithIdle},
			Job{Graph: g, Deadline: d, Strategy: StrategyMultiStart,
				MultiStart: core.MultiStartOptions{Restarts: 2, Seed: 7}},
		)
	}
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		e := Engine{Workers: 1}
		// A fresh single-job batch gets a fresh cache: no sharing at all.
		want[i] = e.RunBatch([]Job{j})[0]
	}
	for _, workers := range []int{1, 4} {
		for i, r := range RunBatch(jobs, workers) {
			if (r.Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d job %d: err %v, want %v", workers, i, r.Err, want[i].Err)
			}
			if r.Err != nil {
				continue
			}
			if math.Float64bits(r.Cost) != math.Float64bits(want[i].Cost) ||
				math.Float64bits(r.Duration) != math.Float64bits(want[i].Duration) ||
				math.Float64bits(r.Energy) != math.Float64bits(want[i].Energy) ||
				r.Iterations != want[i].Iterations {
				t.Fatalf("workers=%d job %d (%s d=%g): shared-base result %v/%v/%v/%d != solo %v/%v/%v/%d",
					workers, i, jobs[i].Strategy, jobs[i].Deadline,
					r.Cost, r.Duration, r.Energy, r.Iterations,
					want[i].Cost, want[i].Duration, want[i].Energy, want[i].Iterations)
			}
		}
	}
}

// TestBaseCacheDeduplicates checks, white-box, that the cache hands the
// same *SchedulerBase to every job of a sweep and distinct bases to
// distinct (graph, options) groups.
func TestBaseCacheDeduplicates(t *testing.T) {
	g2, g3 := taskgraph.G2(), taskgraph.G3()
	c := newBaseCache()
	b1, err := c.get(g3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b2, _ := c.get(g3, core.Options{}); b2 != b1 {
		t.Fatal("same graph + options must share one base")
	}
	// A spelled-out default and the zero value canonicalize together.
	def := battery.DefaultSpec()
	if b2, _ := c.get(g3, core.Options{Battery: &def}); b2 != b1 {
		t.Fatal("explicit default spec must share the zero-options base")
	}
	if b2, _ := c.get(g2, core.Options{}); b2 == b1 {
		t.Fatal("distinct graphs must not share a base")
	}
	if b2, _ := c.get(g3, core.Options{Approx: 0.5}); b2 == b1 {
		t.Fatal("distinct approx settings must not share a base")
	}
	alt := battery.Spec{Kind: battery.KindRakhmatov, Beta: 0.35}
	if b2, _ := c.get(g3, core.Options{Battery: &alt}); b2 == b1 {
		t.Fatal("distinct battery configurations must not share a base")
	}
}
