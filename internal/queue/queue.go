// Package queue is the admission-controlled job queue behind the async
// endpoints of battschedd (POST /v1/jobs and friends): submissions are
// accepted or rejected immediately, ordered by priority, executed by a
// bounded worker pool, and their terminal results retained for polling —
// so a client submitting a thousand-job sweep holds zero connections
// open while the fleet of workers drains the backlog.
//
// The queue is deliberately small-surfaced:
//
//   - Submit admits a job or rejects it synchronously (ErrFull when the
//     waiting line is at capacity — the backpressure signal the server
//     turns into 429 + Retry-After, ErrClosed when draining).
//   - Jobs are identified by their content-addressed cache key, so
//     duplicate submissions coalesce onto one queue entry and one
//     computation; a coalesced submission can only improve the job's
//     lot (priority rises to the highest requested, the TTL extends to
//     the most generous).
//   - A job's lifecycle is Queued → Running → Done, with two
//     early-terminal exits built on the repository's cancellation
//     plumbing: Expired (its ttl_ms elapsed — queue wait included) and
//     Aborted (DELETE /v1/jobs/{id} or server drain). Exactly one
//     terminal transition happens per job, guarded by the queue lock.
//   - Terminal jobs stay pollable for a retention window, then age out;
//     the total tracked-job population is bounded, so an abandoned
//     poller cannot grow the server without limit.
//
// Close drains: queued jobs abort without running, running jobs are
// canceled through their contexts, and every waiter unblocks with a
// terminal snapshot — the clean-SIGTERM-mid-queue story the integration
// suite pins down.
package queue

import (
	"container/heap"
	"container/list"
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
)

// State is a job's lifecycle state.
type State int

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = iota
	// StateRunning: a worker is computing it.
	StateRunning
	// StateDone: terminal; Result holds the outcome (which may be a
	// deterministic scheduling failure — "done" means the computation
	// got its answer, not that the answer is a schedule).
	StateDone
	// StateExpired: terminal; the job's TTL elapsed before completion.
	StateExpired
	// StateAborted: terminal; explicitly aborted or the queue closed.
	StateAborted
)

// String returns the wire spelling of the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateExpired:
		return "expired"
	case StateAborted:
		return "aborted"
	}
	return "invalid"
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateExpired || s == StateAborted
}

// Sizing defaults; see Config.
const (
	DefaultMaxQueued  = 4096
	DefaultRetention  = 5 * time.Minute
	DefaultMaxTracked = 16384
)

// Config sizes a Queue. The zero value is production-usable.
type Config struct {
	// MaxQueued bounds jobs waiting for a worker; a Submit beyond it
	// fails with ErrFull. 0 means DefaultMaxQueued.
	MaxQueued int
	// Workers bounds concurrently running jobs; 0 means 2×GOMAXPROCS(0)
	// (the computation itself is additionally bounded by the engine's
	// shared gate, so workers mostly overlap queue bookkeeping and
	// cache hits with computation).
	Workers int
	// DefaultTTL is applied to submissions that carry none; 0 means no
	// bound.
	DefaultTTL time.Duration
	// Retention is how long a terminal job stays pollable before it is
	// pruned. 0 means DefaultRetention; negative prunes eagerly.
	Retention time.Duration
	// MaxTracked bounds the total tracked population (queued + running +
	// retained terminal). When a Submit would exceed it, the oldest
	// terminal jobs are evicted early; if none are evictable the Submit
	// fails with ErrFull. 0 means DefaultMaxTracked (raised to fit
	// MaxQueued + Workers if those are configured larger).
	MaxTracked int
}

// Submission is one job offered to the queue.
type Submission struct {
	// ID is the job's content-addressed identity (the cache key);
	// submissions sharing an ID coalesce onto one entry. Required.
	ID string
	// Priority orders the waiting line: higher runs earlier, FIFO
	// within a level. A coalesced submission raises the job to the
	// highest priority requested so far.
	Priority int
	// TTL bounds the job's remaining lifetime from this submission
	// (queue wait + run); 0 means Config.DefaultTTL, negative means
	// explicitly unbounded. A coalesced submission extends the
	// deadline to the most generous requested (an unbounded
	// submission clears it).
	TTL time.Duration
	// Run computes the job under ctx; it must honor cancellation
	// promptly and return an engine.ErrCanceled result when cut short.
	// Coalesced submissions keep the first Run (by construction of the
	// ID they are computationally identical). Required.
	Run func(ctx context.Context) engine.Result
}

// Snapshot is a point-in-time copy of one job's lifecycle.
type Snapshot struct {
	ID       string
	State    State
	Priority int
	// Result is the outcome; meaningful only in StateDone.
	Result engine.Result

	t *task // the job snapshotted, for Await
}

// Errors Submit can return.
var (
	// ErrFull rejects a submission because the waiting line (or the
	// tracked population) is at capacity — the admission-control
	// signal; retry after backing off.
	ErrFull = errors.New("queue: full")
	// ErrClosed rejects a submission because the queue is draining.
	ErrClosed = errors.New("queue: closed")
)

// task is one tracked job. All fields are guarded by Queue.mu except
// done (closed exactly once, under mu) and res/finish fields (written
// before the close, read after it).
type task struct {
	id       string
	priority int
	seq      uint64
	heapIdx  int // index in Queue.ready, -1 when not queued
	state    State

	expiresAt time.Time   // zero = unbounded
	timer     *time.Timer // armed while expiresAt is set and state is non-terminal

	run    func(ctx context.Context) engine.Result
	cancel context.CancelCauseFunc // set while running
	killed bool                    // a kill (abort/expire/drain) was requested mid-run
	kill   State                   // the terminal state the kill asked for

	res        engine.Result // valid in StateDone
	finishedAt time.Time
	elem       *list.Element // position in Queue.terminal once finished
	done       chan struct{} // closed on the terminal transition
}

// Queue is the admission-controlled priority job queue. Create it with
// New; it is safe for concurrent use.
type Queue struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond // signals workers: ready job or closing
	ready    taskHeap
	tasks    map[string]*task
	terminal *list.List // finished tasks, oldest first
	running  int
	seq      uint64
	closed   bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	stats statsCounters
}

// statsCounters are the cumulative counters behind Stats; guarded by mu
// (they are only touched on state transitions, which hold it anyway).
type statsCounters struct {
	submitted uint64
	coalesced uint64
	rejected  uint64
	done      uint64
	expired   uint64
	aborted   uint64
}

// Stats is a point-in-time snapshot of the queue counters: two gauges
// for the live population and cumulative counters for everything that
// ever flowed through.
type Stats struct {
	// Queued and Running are the live population.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Submitted counts every accepted Submit (including coalesced ones);
	// Coalesced counts the subset that joined an existing entry.
	Submitted uint64 `json:"submitted"`
	Coalesced uint64 `json:"coalesced"`
	// Rejected counts submissions refused with ErrFull.
	Rejected uint64 `json:"rejected"`
	// Done/Expired/Aborted count terminal transitions by kind.
	Done    uint64 `json:"done"`
	Expired uint64 `json:"expired"`
	Aborted uint64 `json:"aborted"`
	// Tracked is the current tracked population (live + retained
	// terminal).
	Tracked int `json:"tracked"`
}

// New builds a queue and starts its workers.
func New(cfg Config) *Queue {
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = DefaultMaxQueued
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Retention == 0 {
		cfg.Retention = DefaultRetention
	}
	if cfg.MaxTracked <= 0 {
		cfg.MaxTracked = DefaultMaxTracked
	}
	if min := cfg.MaxQueued + cfg.Workers; cfg.MaxTracked < min {
		cfg.MaxTracked = min
	}
	q := &Queue{
		cfg:      cfg,
		tasks:    make(map[string]*task),
		terminal: list.New(),
	}
	q.cond = sync.NewCond(&q.mu)
	q.baseCtx, q.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit admits sub (or coalesces it onto the identically addressed job
// already tracked) and returns the job's current snapshot. It never
// blocks: a full queue fails fast with ErrFull, a draining one with
// ErrClosed — admission control is the whole point.
func (q *Queue) Submit(sub Submission) (Snapshot, error) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Snapshot{}, ErrClosed
	}
	q.pruneLocked(now)

	if t, ok := q.tasks[sub.ID]; ok {
		// A finished-with-result job answers resubmissions from its
		// retained result; a job that expired or was aborted gets a
		// fresh run (drop the stale terminal entry and fall through).
		if t.state == StateDone {
			q.stats.submitted++
			q.stats.coalesced++
			return t.snapshot(), nil
		}
		if t.state.Terminal() {
			q.dropTerminalLocked(t)
		} else {
			q.coalesceLocked(t, sub, now)
			return t.snapshot(), nil
		}
	}

	if len(q.ready) >= q.cfg.MaxQueued {
		q.stats.rejected++
		return Snapshot{}, ErrFull
	}
	for len(q.tasks) >= q.cfg.MaxTracked {
		oldest := q.terminal.Front()
		if oldest == nil {
			q.stats.rejected++
			return Snapshot{}, ErrFull
		}
		q.dropTerminalLocked(oldest.Value.(*task))
	}

	t := &task{
		id:       sub.ID,
		priority: sub.Priority,
		seq:      q.seq,
		state:    StateQueued,
		run:      sub.Run,
		done:     make(chan struct{}),
	}
	q.seq++
	if ttl := q.effectiveTTL(sub.TTL); ttl > 0 {
		t.expiresAt = now.Add(ttl)
		t.timer = time.AfterFunc(ttl, func() { q.expire(t) })
	}
	q.tasks[t.id] = t
	heap.Push(&q.ready, t)
	q.stats.submitted++
	q.cond.Signal()
	return t.snapshot(), nil
}

// effectiveTTL resolves a submission's TTL: 0 inherits the default,
// negative means explicitly unbounded.
func (q *Queue) effectiveTTL(ttl time.Duration) time.Duration {
	if ttl == 0 {
		return q.cfg.DefaultTTL
	}
	if ttl < 0 {
		return 0
	}
	return ttl
}

// coalesceLocked merges a duplicate submission into the live task it
// addresses: priority only ever rises, the expiry only ever recedes.
func (q *Queue) coalesceLocked(t *task, sub Submission, now time.Time) {
	q.stats.submitted++
	q.stats.coalesced++
	if sub.Priority > t.priority {
		t.priority = sub.Priority
		if t.heapIdx >= 0 {
			heap.Fix(&q.ready, t.heapIdx)
		}
	}
	ttl := q.effectiveTTL(sub.TTL)
	switch {
	case ttl == 0:
		// The most generous request wins: unbounded clears the clock.
		if t.timer != nil {
			t.timer.Stop()
			t.timer = nil
		}
		t.expiresAt = time.Time{}
	case !t.expiresAt.IsZero():
		if at := now.Add(ttl); at.After(t.expiresAt) {
			t.expiresAt = at
			if t.timer != nil {
				t.timer.Stop()
			}
			t.timer = time.AfterFunc(ttl, func() { q.expire(t) })
		}
	}
	// A bounded TTL never tightens an already-unbounded job.
}

// Get returns the job's snapshot.
func (q *Queue) Get(id string) (Snapshot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[id]
	if !ok {
		return Snapshot{}, false
	}
	return t.snapshot(), true
}

// Wait blocks until the job reaches a terminal state (returning its
// snapshot), ctx ends (returning ctx.Err()), or reports ok=false for an
// unknown id.
func (q *Queue) Wait(ctx context.Context, id string) (Snapshot, bool, error) {
	q.mu.Lock()
	t, ok := q.tasks[id]
	q.mu.Unlock()
	if !ok {
		return Snapshot{}, false, nil
	}
	snap, err := q.await(ctx, t)
	return snap, true, err
}

// Await is Wait for the job a snapshot (from Submit, Get or Wait) was
// taken of. It holds the job itself rather than looking its ID up, so
// it still returns the terminal snapshot when the job finished and aged
// out of retention before Await was called — a submitter waits on the
// job it was admitted as, never on a later job under the same ID.
func (q *Queue) Await(ctx context.Context, snap Snapshot) (Snapshot, error) {
	return q.await(ctx, snap.t)
}

// await blocks until t is terminal or ctx ends.
func (q *Queue) await(ctx context.Context, t *task) (Snapshot, error) {
	select {
	case <-t.done:
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return t.snapshot(), nil
}

// Abort moves the job to StateAborted: a queued job never runs, a
// running one is canceled through its context. Terminal jobs are left
// as they are (abort is not retroactive); unknown ids report ok=false.
func (q *Queue) Abort(id string) (Snapshot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[id]
	if !ok {
		return Snapshot{}, false
	}
	q.killLocked(t, StateAborted)
	return t.snapshot(), true
}

// Cancellation causes for killed runs, visible through
// context.Cause for anyone debugging a canceled computation.
var (
	errExpired = errors.New("queue: job ttl expired")
	errAborted = errors.New("queue: job aborted")
)

// killCause maps a kill's target state to its cancellation cause.
func killCause(s State) error {
	if s == StateExpired {
		return errExpired
	}
	return errAborted
}

// expire is the TTL timer callback. The timer fires without holding
// q.mu, so by the time it acquires the lock the deadline it was armed
// for may be stale: a coalescing submission can have extended
// expiresAt (or cleared it) while this callback was blocked on the
// lock. The deadline under the lock is the truth — re-check it, and
// re-arm for the remainder instead of killing a job whose extended TTL
// has not elapsed. (Re-arming can leave two timers pointed at the same
// task; that is benign, because every path through here re-validates.)
func (q *Queue) expire(t *task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t.state.Terminal() || t.expiresAt.IsZero() {
		return
	}
	if remain := time.Until(t.expiresAt); remain > 0 {
		t.timer = time.AfterFunc(remain, func() { q.expire(t) })
		return
	}
	q.killLocked(t, StateExpired)
}

// killLocked requests the terminal state s for a live task: a queued
// task finishes immediately, a running one is canceled and its worker
// completes the transition. Terminal tasks are untouched.
func (q *Queue) killLocked(t *task, s State) {
	switch t.state {
	case StateQueued:
		heap.Remove(&q.ready, t.heapIdx)
		q.finishLocked(t, s, engine.Result{})
	case StateRunning:
		if !t.killed {
			t.killed, t.kill = true, s
		}
		if t.cancel != nil {
			t.cancel(killCause(s))
		}
	}
}

// finishLocked performs the job's single terminal transition.
func (q *Queue) finishLocked(t *task, s State, res engine.Result) {
	if t.state.Terminal() {
		return
	}
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
	t.state = s
	t.res = res
	t.finishedAt = time.Now()
	t.elem = q.terminal.PushBack(t)
	switch s {
	case StateDone:
		q.stats.done++
	case StateExpired:
		q.stats.expired++
	case StateAborted:
		q.stats.aborted++
	}
	close(t.done)
}

// dropTerminalLocked forgets a finished task.
func (q *Queue) dropTerminalLocked(t *task) {
	q.terminal.Remove(t.elem)
	delete(q.tasks, t.id)
}

// pruneLocked ages out terminal tasks past the retention window.
func (q *Queue) pruneLocked(now time.Time) {
	for {
		front := q.terminal.Front()
		if front == nil {
			return
		}
		t := front.Value.(*task)
		if now.Sub(t.finishedAt) < q.cfg.Retention {
			return
		}
		q.dropTerminalLocked(t)
	}
}

// worker pops ready tasks and runs them until the queue closes.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		t, ctx := q.next()
		if t == nil {
			return
		}
		res := t.run(ctx)
		t.cancel(nil) // release the context's resources
		// The stored canon is request-neutral, like the cache's: every
		// waiter re-attaches its own name.
		res.Name = ""

		q.mu.Lock()
		q.running--
		if t.killed && errors.Is(res.Err, engine.ErrCanceled) {
			// The cancellation we requested: land on the state the kill
			// asked for. A job whose own timeout_ms fired takes the
			// other branch — that canceled result is its real outcome.
			q.finishLocked(t, t.kill, engine.Result{})
		} else {
			q.finishLocked(t, StateDone, res)
		}
		q.mu.Unlock()
	}
}

// next blocks for the highest-priority ready task, marking it running,
// or returns nil when the queue is closing.
func (q *Queue) next() (*task, context.Context) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil, nil
		}
		if len(q.ready) > 0 {
			t := heap.Pop(&q.ready).(*task)
			t.state = StateRunning
			q.running++
			// The TTL timer keeps ticking through the run and cancels
			// this context via killLocked if it fires mid-computation.
			ctx, cancel := context.WithCancelCause(q.baseCtx)
			t.cancel = cancel
			return t, ctx
		}
		q.cond.Wait()
	}
}

// Close drains the queue: queued jobs abort without running, running
// jobs are canceled, workers exit once their current job returns, and
// every Wait unblocks with a terminal snapshot. Jobs stay pollable
// until their retention lapses. Safe to call more than once.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	for len(q.ready) > 0 {
		t := heap.Pop(&q.ready).(*task)
		q.finishLocked(t, StateAborted, engine.Result{})
	}
	for _, t := range q.tasks {
		if t.state == StateRunning && !t.killed {
			t.killed, t.kill = true, StateAborted
		}
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	q.baseCancel() // cancels every running job's context
	q.wg.Wait()
}

// Stats snapshots the counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Queued:    len(q.ready),
		Running:   q.running,
		Submitted: q.stats.submitted,
		Coalesced: q.stats.coalesced,
		Rejected:  q.stats.rejected,
		Done:      q.stats.done,
		Expired:   q.stats.expired,
		Aborted:   q.stats.aborted,
		Tracked:   len(q.tasks),
	}
}

// snapshot copies the task's externally visible state; caller holds mu
// (or the task is terminal, whose fields are frozen). The retained
// result's pointer fields (Schedule, Idle) are deep-copied with the
// cache's clone so every poller owns its storage: a terminal result is
// handed out many times, and a caller mutating its copy must never
// reach back into the queue's canon or into another poller's snapshot.
func (t *task) snapshot() Snapshot {
	return Snapshot{ID: t.id, State: t.state, Priority: t.priority, Result: cache.CloneResult(t.res), t: t}
}

// taskHeap orders ready tasks by priority (higher first), FIFO within a
// level via the submission sequence number.
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}
func (h *taskHeap) Push(x any) {
	t := x.(*task)
	t.heapIdx = len(*h)
	*h = append(*h, t)
}
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.heapIdx = -1
	*h = old[:n-1]
	return t
}
