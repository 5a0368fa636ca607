package queue

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// okResult is a distinguishable successful outcome.
func okResult(cost float64) engine.Result {
	return engine.Result{Strategy: "iterative", Cost: cost}
}

// instantRun completes immediately with cost.
func instantRun(cost float64) func(context.Context) engine.Result {
	return func(context.Context) engine.Result { return okResult(cost) }
}

// blockingRun blocks until release is closed or ctx ends; a canceled
// ctx yields an engine.ErrCanceled result, mirroring the real engine.
func blockingRun(release <-chan struct{}, cost float64) func(context.Context) engine.Result {
	return func(ctx context.Context) engine.Result {
		select {
		case <-release:
			return okResult(cost)
		case <-ctx.Done():
			return engine.Result{Err: engine.CanceledError(ctx.Err())}
		}
	}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, q *Queue, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, ok := q.Get(id)
		if ok && snap.State == want {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %v (last: %+v, ok=%v)", id, want, snap, ok)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunsAndRetains: a submitted job runs, lands on StateDone with its
// result, and stays pollable.
func TestRunsAndRetains(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	snap, err := q.Submit(Submission{ID: "a", Run: instantRun(42)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap.State.Terminal() {
		t.Fatalf("fresh submission already terminal: %+v", snap)
	}
	got := waitState(t, q, "a", StateDone)
	if got.Result.Cost != 42 {
		t.Fatalf("result cost = %g, want 42", got.Result.Cost)
	}
	st := q.Stats()
	if st.Done != 1 || st.Submitted != 1 || st.Tracked != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPriorityOrder: with one worker pinned, higher-priority jobs jump
// the line and equal priorities stay FIFO.
func TestPriorityOrder(t *testing.T) {
	q := New(Config{Workers: 1, MaxQueued: 16})
	defer q.Close()

	var mu sync.Mutex
	var order []string
	record := func(id string) func(context.Context) engine.Result {
		return func(context.Context) engine.Result {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return okResult(1)
		}
	}

	// Pin the lone worker so the rest queue up behind it.
	release := make(chan struct{})
	if _, err := q.Submit(Submission{ID: "pin", Run: blockingRun(release, 0)}); err != nil {
		t.Fatalf("Submit pin: %v", err)
	}
	waitState(t, q, "pin", StateRunning)

	for _, s := range []struct {
		id  string
		pri int
	}{{"low-1", 0}, {"low-2", 0}, {"high", 5}, {"mid", 3}} {
		if _, err := q.Submit(Submission{ID: s.id, Priority: s.pri, Run: record(s.id)}); err != nil {
			t.Fatalf("Submit %s: %v", s.id, err)
		}
	}
	close(release)
	for _, id := range []string{"high", "mid", "low-1", "low-2"} {
		waitState(t, q, id, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high", "mid", "low-1", "low-2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

// TestAdmissionControl: the MaxQueued bound rejects with ErrFull and
// counts the rejection; capacity freed by a drain admits again.
func TestAdmissionControl(t *testing.T) {
	q := New(Config{Workers: 1, MaxQueued: 2})
	defer q.Close()

	release := make(chan struct{})
	defer close(release)
	if _, err := q.Submit(Submission{ID: "pin", Run: blockingRun(release, 0)}); err != nil {
		t.Fatalf("Submit pin: %v", err)
	}
	waitState(t, q, "pin", StateRunning)

	for i := 0; i < 2; i++ {
		if _, err := q.Submit(Submission{ID: fmt.Sprintf("q%d", i), Run: instantRun(1)}); err != nil {
			t.Fatalf("Submit q%d: %v", i, err)
		}
	}
	if _, err := q.Submit(Submission{ID: "overflow", Run: instantRun(1)}); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity Submit err = %v, want ErrFull", err)
	}
	if st := q.Stats(); st.Rejected != 1 || st.Queued != 2 {
		t.Fatalf("stats = %+v, want Rejected=1 Queued=2", st)
	}
	// A duplicate of a queued job coalesces instead of being rejected,
	// even at capacity.
	if _, err := q.Submit(Submission{ID: "q0", Run: instantRun(1)}); err != nil {
		t.Fatalf("coalescing Submit at capacity: %v", err)
	}
	if st := q.Stats(); st.Coalesced != 1 {
		t.Fatalf("stats = %+v, want Coalesced=1", st)
	}
}

// TestCoalesceRaisesPriority: a duplicate submission bumps the queued
// job to the higher priority.
func TestCoalesceRaisesPriority(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	release := make(chan struct{})
	defer close(release)
	q.Submit(Submission{ID: "pin", Run: blockingRun(release, 0)})
	waitState(t, q, "pin", StateRunning)

	q.Submit(Submission{ID: "j", Priority: 1, Run: instantRun(1)})
	snap, err := q.Submit(Submission{ID: "j", Priority: 7, Run: instantRun(1)})
	if err != nil {
		t.Fatalf("duplicate Submit: %v", err)
	}
	if snap.Priority != 7 {
		t.Fatalf("coalesced priority = %d, want 7", snap.Priority)
	}
	// A lower-priority duplicate does not demote.
	snap, _ = q.Submit(Submission{ID: "j", Priority: 2, Run: instantRun(1)})
	if snap.Priority != 7 {
		t.Fatalf("priority after low-priority duplicate = %d, want 7", snap.Priority)
	}
}

// TestTTLExpiresQueuedJob: a job whose TTL lapses while waiting lands
// on StateExpired without running.
func TestTTLExpiresQueuedJob(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	release := make(chan struct{})
	defer close(release)
	q.Submit(Submission{ID: "pin", Run: blockingRun(release, 0)})
	waitState(t, q, "pin", StateRunning)

	ran := atomic.Bool{}
	q.Submit(Submission{ID: "e", TTL: 10 * time.Millisecond, Run: func(context.Context) engine.Result {
		ran.Store(true)
		return okResult(1)
	}})
	waitState(t, q, "e", StateExpired)
	if ran.Load() {
		t.Fatal("expired job ran anyway")
	}
	if st := q.Stats(); st.Expired != 1 {
		t.Fatalf("stats = %+v, want Expired=1", st)
	}
}

// TestTTLExpiresRunningJob: a TTL firing mid-computation cancels the
// run's context and the job lands on StateExpired.
func TestTTLExpiresRunningJob(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	never := make(chan struct{})
	defer close(never)
	q.Submit(Submission{ID: "e", TTL: 10 * time.Millisecond, Run: blockingRun(never, 0)})
	waitState(t, q, "e", StateExpired)
}

// TestAbort covers both abort paths: queued (never runs) and running
// (context canceled), plus abort of an unknown id.
func TestAbort(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	never := make(chan struct{})
	defer close(never)
	q.Submit(Submission{ID: "running", Run: blockingRun(never, 0)})
	waitState(t, q, "running", StateRunning)
	q.Submit(Submission{ID: "queued", Run: instantRun(1)})

	if snap, ok := q.Abort("queued"); !ok || snap.State != StateAborted {
		t.Fatalf("Abort(queued) = %+v, %v", snap, ok)
	}
	if _, ok := q.Abort("running"); !ok {
		t.Fatal("Abort(running) reported unknown")
	}
	waitState(t, q, "running", StateAborted)
	if _, ok := q.Abort("ghost"); ok {
		t.Fatal("Abort(ghost) reported known")
	}
	if st := q.Stats(); st.Aborted != 2 {
		t.Fatalf("stats = %+v, want Aborted=2", st)
	}
	// Abort of a terminal job is a no-op that reports the state as-is.
	q.Submit(Submission{ID: "done", Run: instantRun(1)})
	waitState(t, q, "done", StateDone)
	if snap, ok := q.Abort("done"); !ok || snap.State != StateDone {
		t.Fatalf("Abort(done) = %+v, %v", snap, ok)
	}
}

// TestResubmitAfterAbort: an aborted job is not a cached failure — a
// fresh submission runs it.
func TestResubmitAfterAbort(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	release := make(chan struct{})
	defer close(release)
	q.Submit(Submission{ID: "pin", Run: blockingRun(release, 0)})
	waitState(t, q, "pin", StateRunning)
	q.Submit(Submission{ID: "j", Run: instantRun(9)})
	q.Abort("j")

	snap, err := q.Submit(Submission{ID: "j", Run: instantRun(9)})
	if err != nil {
		t.Fatalf("resubmit after abort: %v", err)
	}
	if snap.State.Terminal() {
		t.Fatalf("resubmitted job stillborn: %+v", snap)
	}
	q.Abort("pin")
	if got := waitState(t, q, "j", StateDone); got.Result.Cost != 9 {
		t.Fatalf("resubmitted result = %+v", got.Result)
	}
}

// TestDoneCoalescesResubmission: a job that finished with a result
// answers duplicates from retention instead of re-running.
func TestDoneCoalescesResubmission(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	var runs atomic.Int64
	run := func(context.Context) engine.Result { runs.Add(1); return okResult(3) }
	q.Submit(Submission{ID: "j", Run: run})
	waitState(t, q, "j", StateDone)
	snap, err := q.Submit(Submission{ID: "j", Run: run})
	if err != nil || snap.State != StateDone || snap.Result.Cost != 3 {
		t.Fatalf("resubmit of done job = %+v, %v", snap, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times, want 1", runs.Load())
	}
}

// TestJobOwnTimeoutIsDone: a run that returns ErrCanceled on its own
// (the job's timeout_ms, not a queue kill) is a completed outcome —
// StateDone carrying the canceled result, exactly what the sync path
// would have returned.
func TestJobOwnTimeoutIsDone(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	q.Submit(Submission{ID: "j", Run: func(context.Context) engine.Result {
		return engine.Result{Err: engine.CanceledError(context.DeadlineExceeded)}
	}})
	snap := waitState(t, q, "j", StateDone)
	if !errors.Is(snap.Result.Err, engine.ErrCanceled) {
		t.Fatalf("result err = %v, want ErrCanceled", snap.Result.Err)
	}
}

// TestCloseDrains: Close aborts the backlog, cancels running work, and
// unblocks every waiter with a terminal state; later submissions are
// refused with ErrClosed.
func TestCloseDrains(t *testing.T) {
	q := New(Config{Workers: 2})
	never := make(chan struct{})
	defer close(never)
	ids := []string{"r1", "r2", "q1", "q2", "q3"}
	for _, id := range ids {
		q.Submit(Submission{ID: id, Run: blockingRun(never, 0)})
	}
	waitState(t, q, "r1", StateRunning)
	waitState(t, q, "r2", StateRunning)

	waitErr := make(chan error, 1)
	go func() {
		snap, ok, err := q.Wait(context.Background(), "q1")
		if err != nil || !ok || !snap.State.Terminal() {
			waitErr <- fmt.Errorf("Wait(q1) = %+v, %v, %v", snap, ok, err)
			return
		}
		waitErr <- nil
	}()

	q.Close()
	for _, id := range ids {
		snap, ok := q.Get(id)
		if !ok || snap.State != StateAborted {
			t.Fatalf("after Close, %s = %+v, ok=%v; want aborted", id, snap, ok)
		}
	}
	if err := <-waitErr; err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Submission{ID: "late", Run: instantRun(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close err = %v, want ErrClosed", err)
	}
	if st := q.Stats(); st.Aborted != uint64(len(ids)) || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stats after Close = %+v", st)
	}
	q.Close() // idempotent
}

// TestRetentionPrunes: terminal jobs age out of the tracked set after
// the retention window (forced to a negative window for eagerness).
func TestRetentionPrunes(t *testing.T) {
	q := New(Config{Workers: 1, Retention: -time.Second})
	defer q.Close()
	q.Submit(Submission{ID: "old", Run: instantRun(1)})
	waitState(t, q, "old", StateDone)
	// Any later submission triggers the prune.
	q.Submit(Submission{ID: "new", Run: instantRun(1)})
	if _, ok := q.Get("old"); ok {
		t.Fatal("terminal job survived a lapsed retention window")
	}
}

// TestMaxTrackedEvictsTerminal: the tracked-population bound evicts the
// oldest terminal jobs to make room rather than rejecting.
func TestMaxTrackedEvictsTerminal(t *testing.T) {
	q := New(Config{Workers: 1, MaxQueued: 1, MaxTracked: 2})
	defer q.Close()
	q.Submit(Submission{ID: "a", Run: instantRun(1)})
	waitState(t, q, "a", StateDone)
	q.Submit(Submission{ID: "b", Run: instantRun(1)})
	waitState(t, q, "b", StateDone)
	// Tracked is now 2 (both terminal); "c" must evict "a".
	q.Submit(Submission{ID: "c", Run: instantRun(1)})
	waitState(t, q, "c", StateDone)
	if _, ok := q.Get("a"); ok {
		t.Fatal("oldest terminal job not evicted at MaxTracked")
	}
	if _, ok := q.Get("b"); !ok {
		t.Fatal("newer terminal job evicted out of order")
	}
}

// TestWaitUnknownAndCanceled: Wait distinguishes an unknown id from a
// caller that gave up.
func TestWaitUnknownAndCanceled(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	if _, ok, err := q.Wait(context.Background(), "ghost"); ok || err != nil {
		t.Fatalf("Wait(ghost) ok=%v err=%v, want false,nil", ok, err)
	}
	never := make(chan struct{})
	defer close(never)
	q.Submit(Submission{ID: "slow", Run: blockingRun(never, 0)})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, ok, err := q.Wait(ctx, "slow"); !ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait(slow) ok=%v err=%v, want true,DeadlineExceeded", ok, err)
	}
}

// TestAwaitOutlivesRetention: Await holds the admitted job itself, so
// a job that finished and aged out before anyone waited still answers
// with its terminal snapshot, where a lookup by ID finds nothing; and
// Await on a live job still gives up with its caller's ctx.
func TestAwaitOutlivesRetention(t *testing.T) {
	q := New(Config{Workers: 1, Retention: -time.Nanosecond})
	defer q.Close()
	first, err := q.Submit(Submission{ID: "first", Run: instantRun(7)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, "first", StateDone)
	// Negative retention: the next admission prunes the finished job.
	never := make(chan struct{})
	defer close(never)
	slow, err := q.Submit(Submission{ID: "slow", Run: blockingRun(never, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := q.Wait(context.Background(), "first"); ok {
		t.Fatal("first job still tracked; the prune did not happen")
	}
	snap, err := q.Await(context.Background(), first)
	if err != nil || snap.State != StateDone || snap.Result.Cost != 7 {
		t.Fatalf("Await(first) = %+v, %v; want the done cost-7 result", snap, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := q.Await(ctx, slow); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Await(slow) err = %v, want DeadlineExceeded", err)
	}
}

// TestStressConcurrentLifecycle hammers every transition concurrently —
// submit (with duplicate ids forcing coalesce paths), abort, tiny TTLs
// expiring queued and running jobs, polls, waits, and a mid-storm Close —
// and then checks the books balance. Run under -race this is the
// package's data-race oracle; the single-terminal-transition invariant
// is additionally self-enforcing (a second transition would close a
// closed channel and panic).
func TestStressConcurrentLifecycle(t *testing.T) {
	q := New(Config{Workers: 4, MaxQueued: 64, Retention: 50 * time.Millisecond})
	const (
		goroutines = 8
		opsEach    = 300
		idSpace    = 40 // small enough to force constant collisions
	)
	var accepted atomic.Int64
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				id := fmt.Sprintf("job-%d", rng.Intn(idSpace))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // submit, mixed shapes
					sub := Submission{ID: id, Priority: rng.Intn(10)}
					switch rng.Intn(3) {
					case 0:
						sub.Run = instantRun(float64(rng.Intn(100)))
					case 1:
						sub.TTL = time.Duration(1+rng.Intn(3)) * time.Millisecond
						never := make(chan struct{}) // expires mid-run
						sub.Run = blockingRun(never, 0)
					case 2:
						d := time.Duration(rng.Intn(2)) * time.Millisecond
						sub.Run = func(ctx context.Context) engine.Result {
							select {
							case <-time.After(d):
								return okResult(1)
							case <-ctx.Done():
								return engine.Result{Err: engine.CanceledError(ctx.Err())}
							}
						}
					}
					_, err := q.Submit(sub)
					switch {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, ErrFull):
						rejected.Add(1)
					case errors.Is(err, ErrClosed):
						// the closer got there first; fine
					default:
						t.Errorf("Submit: %v", err)
					}
				case 5, 6:
					q.Abort(id)
				case 7, 8:
					q.Get(id)
				case 9:
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(3))*time.Millisecond)
					q.Wait(ctx, id)
					cancel()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	q.Close()

	st := q.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("live jobs after Close: %+v", st)
	}
	if got := st.Submitted; got != uint64(accepted.Load()) {
		t.Fatalf("Submitted = %d, accepted Submits = %d", got, accepted.Load())
	}
	if got := st.Rejected; got != uint64(rejected.Load()) {
		t.Fatalf("Rejected = %d, ErrFull Submits = %d", got, rejected.Load())
	}
	// Every distinct job that entered the queue left through exactly
	// one terminal door.
	distinct := st.Submitted - st.Coalesced
	if terminals := st.Done + st.Expired + st.Aborted; terminals != distinct {
		t.Fatalf("terminal transitions = %d (done=%d expired=%d aborted=%d), distinct jobs = %d",
			terminals, st.Done, st.Expired, st.Aborted, distinct)
	}
}
