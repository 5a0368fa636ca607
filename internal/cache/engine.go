package cache

import (
	"context"

	"repro/internal/engine"
)

// Engine is the cached front of the engine package: the same
// worker-pool batch execution (engine.RunEach), ordering and
// per-job-error guarantees as engine.RunBatchContext, but every
// cacheable job is answered through the Cache — a repeat is a lookup,
// and identical jobs in flight at the same time (within one batch or
// across concurrent batches) compute once.
//
// A nil Cache degrades to pass-through execution, so callers can make
// caching a flag without branching.
type Engine struct {
	// Cache holds the results; nil disables caching.
	Cache *Cache
	// Workers bounds concurrent jobs; 0 means GOMAXPROCS(0).
	Workers int
	// Gate, when non-nil, globally bounds concurrent scheduling work
	// across every RunContext/RunBatchContext call sharing it — cache
	// hits bypass it. A server handling many requests, each with its
	// own worker pool, uses one shared Gate so total scheduling concurrency stays near
	// the gate's capacity instead of requests × Workers. A gated
	// computation also sizes its multistart restart fan-out by the idle
	// gate capacity it can claim (overriding Job.MultiStart.Workers,
	// which is result-neutral), so the bound holds through the restart
	// level too.
	Gate chan struct{}
}

// RunContext executes one job through the cache and reports whether it
// was served without computing (stored hit or single-flight dedup). The
// result carries the job's Name and Index 0. A done ctx stops the
// computation at its next cooperative check (or skips it entirely,
// including the wait for a Gate slot) and yields an engine.ErrCanceled
// result. Cache hits still answer instantly — serving stored bytes
// costs nothing worth canceling.
func (e *Engine) RunContext(ctx context.Context, job engine.Job) (engine.Result, bool) {
	// A lone job may fan its multistart restarts over the whole pool,
	// as engine.RunEach grants a one-job batch.
	res, hit := e.run(ctx, job, engine.Bound(e.Workers))
	res.Index, res.Name = 0, job.Name
	return res, hit
}

// RunBatchContext executes every job over the engine's pool and returns
// one result per job in input order, plus a parallel slice reporting
// which were served from cache. Results are identical to
// engine.RunBatchContext's for any Workers value and any cache state,
// and so is the cancellation contract: jobs the dispatcher never
// reached are marked engine.ErrCanceled without running, in-flight
// computations abort at their next cooperative check, and results that
// completed before the cancellation are bit-identical to an
// uncancelled run's.
func (e *Engine) RunBatchContext(ctx context.Context, jobs []engine.Job) ([]engine.Result, []bool) {
	results := make([]engine.Result, len(jobs))
	hits := make([]bool, len(jobs))
	dispatched := engine.RunEach(ctx, len(jobs), e.Workers, func(i, restartWorkers int) {
		res, hit := e.run(ctx, jobs[i], restartWorkers)
		res.Index, res.Name = i, jobs[i].Name
		results[i], hits[i] = res, hit
	})
	for i := dispatched; i < len(jobs); i++ {
		results[i] = engine.Result{Index: i, Name: jobs[i].Name, Err: engine.CanceledError(ctx.Err())}
	}
	return results, hits
}

// run executes one job: cache lookup/single-flight when cacheable,
// direct engine execution otherwise.
//
// The job's Timeout starts counting here — before the Gate wait and
// before any single-flight join — not just inside the engine. Timeout
// is excluded from the cache key, so a budgeted job can dedup onto a
// budget-free leader's computation; without this wrapping it would wait
// on that flight bounded only by the request context, ignoring its own
// timeout_ms contract.
func (e *Engine) run(ctx context.Context, job engine.Job, restartWorkers int) (engine.Result, bool) {
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
		// The budget now lives in ctx; clear the field so the engine
		// underneath does not arm a second, never-firing timer per job.
		job.Timeout = 0
	}
	if e.Cache == nil {
		return e.compute(ctx, job, restartWorkers), false
	}
	key, ok := Key(job)
	if !ok {
		e.Cache.bypasses.Add(1)
		return e.compute(ctx, job, restartWorkers), false
	}
	return e.Cache.DoContext(ctx, key, func() engine.Result {
		return e.compute(ctx, job, restartWorkers)
	})
}

// compute runs the job on the uncached engine (engine.Run).
//
// Under a Gate, the computation blocks for one slot and then widens its
// restart fan-out only with whatever idle capacity it can claim without
// waiting — so a lone request on an idle server still fans out fully,
// while concurrent requests each hold ~one slot and run their restarts
// sequentially. Total scheduling goroutines stay at ~cap(Gate) instead
// of requests × restartWorkers; since restart fan-out is result-neutral
// (bit-identical for any Workers), clamping it here changes wall-clock
// only. A request canceled while queued for its slot gives up with an
// engine.ErrCanceled result instead of holding its place in line.
func (e *Engine) compute(ctx context.Context, job engine.Job, restartWorkers int) engine.Result {
	if e.Gate != nil {
		select {
		case e.Gate <- struct{}{}:
		case <-ctx.Done():
			return engine.Result{Err: engine.CanceledError(ctx.Err())}
		}
		held := 1
		// Only a multistart job can use extra slots (every other
		// strategy runs one goroutine), so only it widens — a greedy
		// claim here would serialize concurrent cheap requests behind
		// one holder of the whole gate.
		if s, err := engine.CanonicalStrategy(job.Strategy); err == nil && s == engine.StrategyMultiStart {
			for held < restartWorkers {
				gotSlot := false
				select {
				case e.Gate <- struct{}{}:
					gotSlot = true
				default:
				}
				if !gotSlot {
					break
				}
				held++
			}
			job.MultiStart.Workers = held
		}
		defer func() {
			for i := 0; i < held; i++ {
				<-e.Gate
			}
		}()
	}
	return engine.Run(ctx, job, restartWorkers)
}
