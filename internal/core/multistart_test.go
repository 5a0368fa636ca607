package core

import (
	"context"
	"testing"

	"repro/internal/taskgraph"
)

// TestMultiStartNeverWorse: the deterministic run is included, so
// multi-start can only match or improve it — and it must stay feasible.
func TestMultiStartNeverWorse(t *testing.T) {
	for _, tc := range []struct {
		g *taskgraph.Graph
		d float64
	}{
		{taskgraph.G2(), 75},
		{taskgraph.G3(), taskgraph.G3Deadline},
	} {
		s := mustScheduler(t, tc.g, tc.d, Options{})
		base, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		multi, err := RunMultiStart(context.Background(), s, MultiStartOptions{Restarts: 6, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if multi.Cost > base.Cost+1e-9 {
			t.Fatalf("multi-start %.2f worse than base %.2f", multi.Cost, base.Cost)
		}
		if err := multi.Schedule.ValidateDeadline(tc.g, tc.d); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultiStartDeterministic(t *testing.T) {
	g := taskgraph.G3()
	s := mustScheduler(t, g, taskgraph.G3Deadline, Options{})
	a, err := RunMultiStart(context.Background(), s, MultiStartOptions{Restarts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMultiStart(context.Background(), s, MultiStartOptions{Restarts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || !seqEqual(a.Schedule.Order, b.Schedule.Order) {
		t.Fatal("multi-start not deterministic for a fixed seed")
	}
}

// TestMultiStartInfeasible: an infeasible deadline surfaces as the
// deterministic run's error, before any restart runs.
func TestMultiStartInfeasible(t *testing.T) {
	g := taskgraph.G3()
	s := mustScheduler(t, g, taskgraph.G3Deadline, Options{})
	s.deadline = 1
	if _, err := RunMultiStart(context.Background(), s, MultiStartOptions{Restarts: 3}); err == nil {
		t.Fatal("want infeasible error")
	}
}

func TestRunFromInfeasible(t *testing.T) {
	g := taskgraph.G3()
	s := mustScheduler(t, g, taskgraph.G3Deadline, Options{})
	s.deadline = 1 // force infeasible after construction
	if _, err := s.runFromContext(context.Background(), s.initialSequence()); err == nil {
		t.Fatal("want infeasible error")
	}
}
