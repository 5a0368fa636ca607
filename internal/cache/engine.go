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
	// Workers bounds RunBatchContext's concurrent jobs; 0 means
	// GOMAXPROCS(0).
	Workers int
	// Gate, when non-nil, globally bounds concurrent scheduling work
	// across every RunContext/RunBatchContext call sharing it — cache
	// hits bypass it. Every computation holds exactly one slot while it
	// runs, so a server handling many requests, each with its own worker
	// pool, runs at most cap(Gate) computations at once instead of
	// requests × Workers.
	Gate chan struct{}
}

// RunContext executes one job through the cache and reports whether it
// was served without computing (stored hit or single-flight dedup). The
// result carries the job's Name. A done ctx stops the computation at its
// next cooperative check (or skips it entirely, including the wait for
// a Gate slot) and yields an engine.ErrCanceled result. Cache hits
// still answer instantly — serving stored bytes costs nothing worth
// canceling.
func (e *Engine) RunContext(ctx context.Context, job engine.Job) (engine.Result, bool) {
	res, hit := e.run(ctx, job)
	res.Name = job.Name
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
	dispatched := engine.RunEach(ctx, len(jobs), e.Workers, func(i int) {
		res, hit := e.run(ctx, jobs[i])
		res.Name = jobs[i].Name
		results[i], hits[i] = res, hit
	})
	for i := dispatched; i < len(jobs); i++ {
		results[i] = engine.Result{Name: jobs[i].Name, Err: engine.CanceledError(ctx.Err())}
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
func (e *Engine) run(ctx context.Context, job engine.Job) (engine.Result, bool) {
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
		// The budget now lives in ctx; clear the field so the engine
		// underneath does not arm a second, never-firing timer per job.
		job.Timeout = 0
	}
	if e.Cache == nil {
		return e.compute(ctx, job), false
	}
	key, ok := Key(job)
	if !ok {
		e.Cache.bypasses.Add(1)
		return e.compute(ctx, job), false
	}
	return e.Cache.DoContext(ctx, key, func() engine.Result {
		return e.compute(ctx, job)
	})
}

// compute runs the job on the uncached engine (engine.Run), holding one
// Gate slot for the whole computation when a Gate is set. A request
// canceled while queued for its slot gives up with an
// engine.ErrCanceled result instead of holding its place in line.
func (e *Engine) compute(ctx context.Context, job engine.Job) engine.Result {
	if e.Gate != nil {
		select {
		case e.Gate <- struct{}{}:
		case <-ctx.Done():
			return engine.Result{Err: engine.CanceledError(ctx.Err())}
		}
		defer func() { <-e.Gate }()
	}
	return engine.Run(ctx, job)
}
