package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/taskgraph"
)

// blockingModel is a battery model that parks the first ChargeLost call
// on a channel: the test learns exactly when a job is mid-computation
// (started closes) and decides when it may proceed (release). Every
// call delegates to the real Rakhmatov model, so jobs that complete
// produce real, comparable results.
type blockingModel struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
	inner   battery.Model
}

func newBlockingModel() *blockingModel {
	return &blockingModel{
		started: make(chan struct{}),
		release: make(chan struct{}),
		inner:   battery.NewRakhmatov(battery.DefaultBeta),
	}
}

func (m *blockingModel) ChargeLost(p battery.Profile, at float64) float64 {
	m.once.Do(func() {
		close(m.started)
		<-m.release
	})
	return m.inner.ChargeLost(p, at)
}

func (m *blockingModel) Name() string { return "blocking-test-model" }

// costWith makes the engine cost every iterative job on graph g (by
// identity) with the hand-written model m, through the
// core.NewBaseWithModel seam, until the test ends.
func costWith(t *testing.T, g *taskgraph.Graph, m battery.Model) *taskgraph.Graph {
	t.Helper()
	prev := newBase
	newBase = func(jg *taskgraph.Graph, opt core.Options) (*core.SchedulerBase, error) {
		if jg == g {
			return core.NewBaseWithModel(jg, m, opt)
		}
		return prev(jg, opt)
	}
	t.Cleanup(func() { newBase = prev })
	return g
}

// TestRunBatchContextCancelMidBatch is the cancellation contract in one
// scenario: with one worker, job 0 completes, job 1 blocks mid-search,
// and jobs 2+ wait their turn. Canceling then releasing the block must
// (a) return promptly, (b) keep job 0's result bit-identical to an
// uncancelled run's, (c) mark the mid-flight job 1 ErrCanceled, and
// (d) mark every unstarted job ErrCanceled without running it — both
// still matching context.Canceled, the cause.
func TestRunBatchContextCancelMidBatch(t *testing.T) {
	model := newBlockingModel()
	jobs := []Job{
		{Name: "done", Graph: taskgraph.G2(), Deadline: 75},
		{Name: "mid-flight", Graph: costWith(t, taskgraph.G3(), model), Deadline: 230},
		{Name: "unstarted-1", Graph: taskgraph.G3(), Deadline: 230},
		{Name: "unstarted-2", Graph: taskgraph.G2(), Deadline: 55},
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resc := make(chan []Result, 1)
	go func() { resc <- RunBatchContext(ctx, jobs, 1) }()

	// Job 1 signals it is inside ChargeLost — job 0 is already done
	// (one worker, in dispatch order) and jobs 2+ have not started.
	select {
	case <-model.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job 1 never reached the battery model")
	}
	cancel()
	close(model.release)

	var results []Result
	select {
	case results = <-resc:
	case <-time.After(10 * time.Second):
		t.Fatal("RunBatchContext did not return promptly after cancel")
	}

	// (b) The completed job is exactly what an uncancelled run produces.
	want := RunBatch(jobs[:1], 1)[0]
	if results[0].Err != nil {
		t.Fatalf("completed job reported error %v", results[0].Err)
	}
	if !reflect.DeepEqual(want, results[0]) {
		t.Fatalf("completed job differs from uncancelled run:\nwant %+v\ngot  %+v", want, results[0])
	}

	// (c) and (d): everything else is ErrCanceled in its own slot, with
	// its name preserved.
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, ErrCanceled) || !errors.Is(results[i].Err, context.Canceled) {
			t.Fatalf("job %d err = %v, want ErrCanceled wrapping context.Canceled", i, results[i].Err)
		}
		if results[i].Schedule != nil {
			t.Fatalf("job %d carries a schedule despite cancellation", i)
		}
		if results[i].Name != jobs[i].Name {
			t.Fatalf("job %d lost its identity: %+v", i, results[i])
		}
	}
}

// TestRunBatchContextLiveCtxIdentical: with a context that never fires,
// RunBatchContext is RunBatch — byte-for-byte, for a mixed batch.
func TestRunBatchContextLiveCtxIdentical(t *testing.T) {
	jobs := []Job{
		{Name: "a", Graph: taskgraph.G3(), Deadline: 230},
		{Name: "ms", Graph: taskgraph.G2(), Deadline: 55, Strategy: "multistart", MultiStart: core.MultiStartOptions{Restarts: 4, Seed: 7}},
		{Name: "rv", Graph: taskgraph.G2(), Deadline: 75, Strategy: "rv-dp"},
		{Name: "bad", Graph: taskgraph.G2(), Deadline: 1},
	}
	want := RunBatch(jobs, 2)
	got := RunBatchContext(context.Background(), jobs, 2)
	for i := range want {
		if !reflect.DeepEqual(describeResult(want[i]), describeResult(got[i])) {
			t.Fatalf("job %d differs:\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
}

// describeResult normalizes error identity (fresh-but-equal error
// values) for comparison.
func describeResult(r Result) Result {
	if r.Err != nil {
		r.Err = errors.New(r.Err.Error())
	}
	return r
}

// TestJobTimeout: a per-job Timeout aborts only that job — it reports
// ErrCanceled with the deadline cause while the rest of the batch is
// untouched.
func TestJobTimeout(t *testing.T) {
	model := newBlockingModel()
	jobs := []Job{
		{Name: "slow", Graph: costWith(t, taskgraph.G3(), model), Deadline: 230, Timeout: 20 * time.Millisecond},
		{Name: "fine", Graph: taskgraph.G2(), Deadline: 75},
	}
	resc := make(chan []Result, 1)
	go func() { resc <- RunBatchContext(context.Background(), jobs, 1) }()

	select {
	case <-model.started:
	case <-time.After(10 * time.Second):
		t.Fatal("slow job never reached the battery model")
	}
	// Hold the job well past its 20ms budget, then let it observe the
	// expired context.
	time.Sleep(50 * time.Millisecond)
	close(model.release)

	var results []Result
	select {
	case results = <-resc:
	case <-time.After(10 * time.Second):
		t.Fatal("batch did not finish")
	}
	if !errors.Is(results[0].Err, ErrCanceled) || !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("timed-out job err = %v, want ErrCanceled wrapping context.DeadlineExceeded", results[0].Err)
	}
	if !strings.Contains(results[0].Err.Error(), "deadline") {
		t.Fatalf("timeout error should carry the deadline cause, got %q", results[0].Err)
	}
	if results[1].Err != nil || results[1].Schedule == nil {
		t.Fatalf("untimed job must complete normally: %+v", results[1])
	}
}
