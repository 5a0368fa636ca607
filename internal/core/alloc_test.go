package core

import (
	"context"
	"testing"

	"repro/internal/taskgraph"
)

// TestRunnerSteadyStateZeroAlloc pins the scratch-arena guarantee the
// window-sweep benchmark measures: after the warm-up runs, a Runner's
// full iterative run — minting the per-deadline scheduler, initial
// sequencing, every window's backward pass, cost evaluation, Equation-4
// resequencing and result materialization — performs zero heap
// allocations (with tracing off), also when consecutive runs alternate
// between two deadlines.
func TestRunnerSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	for _, c := range []struct {
		name   string
		graph  *taskgraph.Graph
		d1, d2 float64
	}{
		{"G2", taskgraph.G2(), 75, 55},
		{"G3", taskgraph.G3(), taskgraph.G3Deadline, 100},
	} {
		r := mustRunner(t, c.graph, Options{})
		for _, d := range []float64{c.d1, c.d2} {
			if _, err := r.Run(context.Background(), d); err != nil {
				t.Fatalf("%s: warm-up at %g: %v", c.name, d, err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			for _, d := range []float64{c.d1, c.d2} {
				if _, err := r.Run(context.Background(), d); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state Runner.Run alternating deadlines allocates %v per pair, want 0", c.name, allocs)
		}
	}
}
