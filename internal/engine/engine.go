// Package engine executes batches of scheduling jobs over a bounded
// worker pool. It is the throughput layer of the reproduction: the
// paper's algorithm schedules one graph against one deadline, while a
// production host receives a stream of independent (graph, deadline,
// strategy) jobs and wants them finished as fast as the cores allow.
//
// Jobs are independent, so RunBatch fans them out over a bounded pool
// of goroutines (RunEach) and runs each through Run; results come back
// in input order with per-job errors — one malformed or infeasible job
// never fails the batch. The pool is the only level of concurrency:
// each job, a multi-start search included, runs on the one goroutine
// that picked it up, so a pool of n workers runs at most n searches.
// Workers share nothing mutable: every run in core carries its own
// scratch arena (see internal/core's runScratch), so per-job results
// are bit-identical for every pool size.
//
//battlint:deterministic
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Job is one scheduling request: a graph, a deadline and a strategy.
type Job struct {
	// Name optionally labels the job; it is echoed in the Result.
	Name string
	// Graph is the task graph to schedule (required).
	Graph *taskgraph.Graph
	// Deadline is the completion deadline in minutes (required, > 0).
	Deadline float64
	// Strategy selects the algorithm; "" means StrategyIterative. See
	// Strategies for the accepted names.
	Strategy string
	// Options configures the iterative strategies (the zero value is
	// the paper's configuration) and supplies the battery model used
	// to cost baseline schedules.
	Options core.Options
	// MultiStart configures StrategyMultiStart.
	MultiStart core.MultiStartOptions
	// Timeout bounds this job's computation once it starts (0 = none).
	// A job that exceeds it fails with ErrCanceled; jobs that finish in
	// time are unaffected, so Timeout is result-neutral for completed
	// work and excluded from cache keys.
	Timeout time.Duration
}

// Result is the outcome of one Job. Exactly one of Schedule/Err is nil.
type Result struct {
	// Name echoes Job.Name.
	Name string
	// Strategy is the canonical strategy name that ran.
	Strategy string
	// Schedule is the schedule found (nil on error).
	Schedule *sched.Schedule
	// Cost is sigma at completion under the job's battery model, mA·min.
	Cost float64
	// Duration is the schedule completion time, minutes.
	Duration float64
	// Energy is the delivered charge, mA·min.
	Energy float64
	// Iterations is the outer-loop iteration count (iterative
	// strategies only).
	Iterations int
	// Idle is the recovery-rest plan (StrategyWithIdle only).
	Idle *core.IdlePlan
	// Err is the per-job failure, nil on success.
	Err error
}

// ErrNilGraph is returned for jobs without a graph.
var ErrNilGraph = errors.New("engine: job has a nil graph")

// ErrCanceled marks a job that did not complete because its context was
// canceled or its Timeout fired — whether it never started or was
// aborted mid-search. Match it with errors.Is; the error text carries
// the underlying context error, so a disconnect ("context canceled")
// and a timeout ("context deadline exceeded") stay distinguishable.
var ErrCanceled = errors.New("engine: job canceled")

// CanceledError wraps a context's cause under ErrCanceled — the one
// shape every layer reports cancellation in, so front ends can rely on
// errors.Is(err, ErrCanceled) and a stable message format. The cause
// stays matchable too: errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded) holds as it does on a bare
// core run.
func CanceledError(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// isContextErr reports whether err came from a canceled or expired
// context (directly or wrapped).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Bound resolves a worker bound: workers when positive, else
// GOMAXPROCS(0).
func Bound(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunBatch executes every job over a pool of workers goroutines (0
// means GOMAXPROCS) and returns one Result per job, in input order. Job
// failures (bad strategy, infeasible deadline, nil graph, a panicking
// model) land in Result.Err; RunBatch itself never fails.
func RunBatch(jobs []Job, workers int) []Result {
	return RunBatchContext(context.Background(), jobs, workers)
}

// RunBatchContext executes the batch until done or ctx is canceled.
// Cancellation is cooperative and prompt: jobs not yet started are
// marked ErrCanceled without running, and in-flight iterative searches
// abort at their next window-evaluation check, also landing on
// ErrCanceled. Jobs that completed before the cancellation keep their
// results, bit-identical to an uncancelled run's — cancellation never
// changes what finished, only how much finishes.
func RunBatchContext(ctx context.Context, jobs []Job, workers int) []Result {
	results := make([]Result, len(jobs))
	dispatched := RunEach(ctx, len(jobs), workers, func(i int) {
		results[i] = Run(ctx, jobs[i])
	})
	for i := dispatched; i < len(jobs); i++ {
		results[i] = Result{Name: jobs[i].Name, Err: CanceledError(ctx.Err())}
	}
	return results
}

// RunEach runs fn(i) for every i in [0, n) over a pool of at most
// Bound(workers) goroutines — the one pool every batch runner uses,
// exported so the cached engine (internal/cache) shares it instead of
// copying it.
//
// Once ctx is done the dispatcher stops handing out indices. RunEach
// returns how many it dispatched: every i below that ran fn to
// completion (fn observes the same ctx and is expected to cut its own
// work short), and fn never started for the rest — the caller decides
// what an undispatched slot means.
func RunEach(ctx context.Context, n, workers int, fn func(i int)) int {
	pool := max(min(Bound(workers), n), 1)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	done := ctx.Done()
	dispatched := 0
dispatch:
	for ; dispatched < n; dispatched++ {
		select {
		case idx <- dispatched:
		case <-done:
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return dispatched
}

// Run executes one job and returns its Result (Name echoed). Panics
// become per-job errors, so a misbehaving custom battery model cannot
// take a batch down, and context errors become ErrCanceled, so front
// ends report cancellation distinctly from scheduling failures.
func Run(ctx context.Context, job Job) (res Result) {
	res = Result{Name: job.Name}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("engine: job panicked: %v", r)
			res.Schedule = nil
		}
	}()
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		// Dispatched in the same instant the batch was canceled.
		res.Err = CanceledError(err)
		return res
	}
	strategy, err := CanonicalStrategy(job.Strategy)
	if err != nil {
		res.Err = err
		return res
	}
	res.Strategy = strategy
	if job.Graph == nil {
		res.Err = ErrNilGraph
		return res
	}
	res.Err = execute(ctx, strategy, job, &res)
	if res.Err != nil {
		if isContextErr(res.Err) {
			res.Err = CanceledError(res.Err)
		}
		res.Schedule = nil
	}
	return res
}
