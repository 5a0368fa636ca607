package core

import (
	"context"

	"repro/internal/sched"
)

// Runner runs the iterative algorithm for one graph + options at any
// deadline while reusing every piece of run state: the shared
// SchedulerBase (battery model resolution, flat matrices, Energy Vector,
// reachability bitsets, pruned candidate lists, lower-bound analysis and
// the initial sequence), the per-deadline Scheduler (held by value and
// re-minted in place), the scratch arena, the result struct and the
// schedule's order slice and assignment map. After a warm-up run the
// steady state allocates nothing, whether the deadline repeats or
// changes (with Options.RecordTrace off — traces are per-run history and
// are allocated when requested).
//
// Results are bit-identical to New(graph, deadline, opt) followed by
// Run, for every deadline (see TestRunnerMatchesNew).
//
// The Result returned by Run is owned by the Runner and
// overwritten by the next call; callers that need to keep one must copy
// it (Result.Schedule.Clone for the schedule). A Runner is not safe for
// concurrent use — it is exactly one worker's arena. Mint one per
// goroutine from a shared SchedulerBase (SchedulerBase.NewRunner); the
// base itself is immutable and safe to share.
type Runner struct {
	base  *SchedulerBase
	s     Scheduler
	scr   *runScratch
	sched sched.Schedule
	res   Result
}

// NewRunner mints a Runner with a freshly sized arena over the shared
// base.
func (b *SchedulerBase) NewRunner() *Runner {
	return &Runner{base: b, scr: b.proto.newScratch()}
}

// Run executes the iterative algorithm for one deadline, reusing the
// Runner's storage. ctx cancels the search cooperatively (see
// Scheduler.RunContext for the semantics).
func (r *Runner) Run(ctx context.Context, deadline float64) (*Result, error) {
	if err := r.base.mint(&r.s, deadline); err != nil {
		return nil, err
	}
	if err := r.s.runInto(ctx, r.scr, r.s.initSeq, r.s.opt.RecordTrace, &r.res, &r.sched); err != nil {
		return nil, err
	}
	return &r.res, nil
}
