package core

import (
	"context"
	"math/rand"
)

// This file adds one engineering extension around the paper's algorithm:
// multi-start search over randomized initial sequences (the algorithm is
// greedy in its first sequence; restarts recover some of the gap to
// heavier searches at a controlled cost).

// DefaultRestarts is the restart count used when
// MultiStartOptions.Restarts is zero or negative.
const DefaultRestarts = 8

// MultiStartOptions configures RunMultiStart.
type MultiStartOptions struct {
	// Restarts is the number of additional runs from randomized
	// initial sequences (default DefaultRestarts). The deterministic
	// paper run is always included, so the result can never be worse
	// than Run's.
	Restarts int
	// Seed makes the randomized starts reproducible.
	Seed int64
}

// RunMultiStart runs the paper's algorithm once from its deterministic
// initial sequence and then from `Restarts` random topological orders,
// in seed order, returning the best result: a restart replaces the
// best so far only with a strictly lower cost. Randomization perturbs
// only the initial list-scheduling weights; everything downstream is
// the unmodified algorithm.
//
// ctx is checked between restarts and inside each restart's window
// evaluation, so the search stops promptly once the caller gives up; on
// cancellation it returns ctx.Err() and no partial best.
func RunMultiStart(ctx context.Context, s *Scheduler, opts MultiStartOptions) (*Result, error) {
	if opts.Restarts <= 0 {
		opts.Restarts = DefaultRestarts
	}
	best, err := s.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	w := make([]float64, s.n)
	for range opts.Restarts {
		for i := range w {
			w[i] = rng.Float64()
		}
		res, err := s.runFromContext(ctx, s.listSchedule(w))
		if err != nil {
			return nil, err
		}
		if res.Cost < best.Cost {
			best = res
		}
	}
	return best, nil
}

// runFromContext executes the iterative loop starting from an explicit
// initial sequence (dense indices) instead of SequenceDecEnergy's, with
// its own scratch arena, checking ctx between iterations and inside
// window evaluation.
func (s *Scheduler) runFromContext(ctx context.Context, initial []int) (*Result, error) {
	return s.runFresh(ctx, initial, false)
}
