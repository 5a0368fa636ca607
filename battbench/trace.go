package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/queue"
	"repro/internal/store"
	"repro/internal/wire"
)

// span is one timed call into a layer. req is the latency unit it
// belongs to (a request on the sync workloads, a job on async-restart);
// parent is the span that made the call, or -1.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run writes them out. A nil
// tracer records nothing and reads no clock, which is how the untraced
// replay runs the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, req, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part its children
// cover (children run inside their parent, on its goroutine).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerMeans is the per-call mean self time of every span name, in µs,
// over the spans keep accepts (all when keep is nil).
func layerMeans(spans []span, self []int64, keep func(span) bool) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]float64{}
	for i, s := range spans {
		if keep != nil && !keep(s) {
			continue
		}
		sum[s.Name] += float64(self[i]) / 1e3
		n[s.Name]++
	}
	for name := range sum {
		sum[name] /= n[name]
	}
	return sum
}

// stageSums is, per latency unit, the summed self time of its spans:
// the traced replay's account of where that unit's latency went.
func stageSums(spans []span, self []int64) map[int32]int64 {
	out := map[int32]int64{}
	for i, s := range spans {
		out[s.Req] += self[i]
	}
	return out
}

// layers is the set of in-process layer objects one replay runs
// against, fresh per replay so the traced and untraced replays do the
// same work.
type layers struct {
	tr   *tracer
	mem  *cache.Cache
	disk *store.Store  // nil on the sync workloads
	gate chan struct{} // the daemon's compute gate: GOMAXPROCS slots

	mu       sync.Mutex
	computed []engine.Job // jobs the traced replay computed, for coreTimes
	keys     []string     // cache keys the traced replay looked up, for allocsPerHit
}

func newLayers(tr *tracer, disk *store.Store) *layers {
	return &layers{
		tr:   tr,
		mem:  cache.New(0),
		disk: disk,
		gate: make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// decode is the wire layer on one job line: DecodeJob, then ToEngine.
func (ly *layers) decode(req int32, ln []byte) (wire.Job, engine.Job, error) {
	s := ly.tr.begin("wire.decode", req, -1)
	job, err := wire.DecodeJob(ln)
	ly.tr.end(s)
	if err != nil {
		return job, engine.Job{}, err
	}
	s = ly.tr.begin("wire.build", req, -1)
	ej, err := job.ToEngine()
	ly.tr.end(s)
	return job, ej, err
}

// key is the cache-key layer.
func (ly *layers) key(req int32, ej engine.Job) (string, error) {
	s := ly.tr.begin("cache.key", req, -1)
	k, ok := cache.Key(ej)
	ly.tr.end(s)
	if !ok {
		return "", fmt.Errorf("job has no cache key")
	}
	return k, nil
}

// lookup is the served path below the key: the memory LRU, then (with
// a disk tier) the store, then the compute gate and the engine, and the
// write-through — the order cache.Cache.DoContext and
// cache.Engine.compute use, with each call under its own span.
func (ly *layers) lookup(ctx context.Context, req int32, k string, ej engine.Job) engine.Result {
	if ly.tr != nil {
		ly.mu.Lock()
		ly.keys = append(ly.keys, k)
		ly.mu.Unlock()
	}
	s := ly.tr.begin("cache.lookup", req, -1)
	res, _ := ly.mem.DoContext(ctx, k, func() engine.Result {
		if ly.disk != nil {
			rs := ly.tr.begin("store.read", req, s)
			r, hit, _ := ly.disk.Get(k)
			ly.tr.end(rs)
			if hit {
				return r
			}
		}
		gs := ly.tr.begin("engine.gate", req, s)
		ly.gate <- struct{}{}
		ly.tr.end(gs)
		es := ly.tr.begin("engine.run", req, s)
		r := engine.RunBatchContext(ctx, []engine.Job{ej}, 1)[0]
		ly.tr.end(es)
		<-ly.gate
		if ly.tr != nil {
			ly.mu.Lock()
			ly.computed = append(ly.computed, ej)
			ly.mu.Unlock()
		}
		if ly.disk != nil && r.Err == nil {
			ws := ly.tr.begin("store.write", req, s)
			ly.disk.Put(k, r)
			ly.tr.end(ws)
		}
		return r
	})
	ly.tr.end(s)
	return res
}

// encode is the wire layer on the way out: FromEngine plus JSON, as the
// handlers write it.
func (ly *layers) encode(req int32, idx int, res engine.Result, w io.Writer) {
	s := ly.tr.begin("wire.encode", req, -1)
	json.NewEncoder(w).Encode(wire.FromEngine(idx, res))
	ly.tr.end(s)
}

// replayHot replays hot-fixture requests [0, n) over clients goroutines
// after warming every key untraced, as the live run does.
func replayHot(ly *layers, h *hotSet, n, clients int) (*load, error) {
	ctx := context.Background()
	tr := ly.tr
	ly.tr = nil
	for k := range h.keys {
		if _, err := hotReplayOne(ctx, ly, h, -1, k); err != nil {
			return nil, err
		}
	}
	ly.tr = tr
	var le loopErr
	l := closedLoop(clients, func(i int, l *load) bool {
		if i >= n {
			return false
		}
		key := h.key(i)
		t0 := time.Now()
		ln, err := hotReplayOne(ctx, ly, h, int32(i), key)
		if err != nil {
			return le.set(err)
		}
		done := time.Now()
		l.samples = append(l.samples, sample{at: done, d: done.Sub(t0), jobs: 1})
		l.outs = append(l.outs, lineOutcome(key, 0, ln))
		l.jobs++
		return true
	})
	return l, le.err
}

func hotReplayOne(ctx context.Context, ly *layers, h *hotSet, req int32, key int) ([]byte, error) {
	_, ej, err := ly.decode(req, h.keys[key])
	if err != nil {
		return nil, err
	}
	k, err := ly.key(req, ej)
	if err != nil {
		return nil, err
	}
	res := ly.lookup(ctx, req, k, ej)
	var buf bytes.Buffer
	ly.encode(req, 0, res, &buf)
	return buf.Bytes(), nil
}

// replaySweep replays cold-sweep requests [0, n): per request, the
// eight lines are decoded, then each job is keyed, looked up (a miss
// that computes) and encoded.
func replaySweep(ly *layers, seed int64, n, clients int) (*load, error) {
	ctx := context.Background()
	var le loopErr
	l := closedLoop(clients, func(i int, l *load) bool {
		if i >= n {
			return false
		}
		body := sweepBody(seed, i)
		req := int32(i)
		t0 := time.Now()
		lines := splitLines(body)
		jobs := make([]engine.Job, len(lines))
		for k, ln := range lines {
			var err error
			if _, jobs[k], err = ly.decode(req, ln); err != nil {
				return le.set(err)
			}
		}
		var buf bytes.Buffer
		for k, ej := range jobs {
			key, err := ly.key(req, ej)
			if err != nil {
				return le.set(err)
			}
			ly.encode(req, k, ly.lookup(ctx, req, key, ej), &buf)
		}
		done := time.Now()
		l.samples = append(l.samples, sample{at: done, d: done.Sub(t0), jobs: len(jobs)})
		for k, ln := range splitLines(buf.Bytes()) {
			l.outs = append(l.outs, lineOutcome(i*sweepDeadlines+k, k, ln))
			l.jobs++
		}
		return true
	})
	return l, le.err
}

// replayAsync replays one async-restart pass through an in-process
// queue.Queue configured as the daemon's, with the memory LRU over the
// disk store. Each job's latency unit is its pass index; its latency
// runs from its body's start to the end of its line's encode.
func replayAsync(ly *layers, a *asyncSet, clients int) (*load, error) {
	ctx := context.Background()
	q := queue.New(queue.Config{})
	defer q.Close()
	var le loopErr
	l := closedLoop(clients, func(b int, l *load) bool {
		if b >= asyncPassBodies {
			return false
		}
		t0 := time.Now()
		lines := splitLines(a.body(b))
		wjobs := make([]wire.Job, len(lines))
		ejobs := make([]engine.Job, len(lines))
		for idx, ln := range lines {
			var err error
			if wjobs[idx], ejobs[idx], err = ly.decode(int32(b*asyncBodyJobs+idx), ln); err != nil {
				return le.set(err)
			}
		}
		type done struct {
			idx  int
			snap queue.Snapshot
			ok   bool
		}
		fin := make(chan done, len(lines))
		for idx := range lines {
			req := int32(b*asyncBodyJobs + idx)
			id, err := ly.key(req, ejobs[idx])
			if err != nil {
				return le.set(err)
			}
			ej := ejobs[idx]
			var ran atomic.Bool
			ws := ly.tr.begin("queue.wait", req, -1)
			_, err = q.Submit(queue.Submission{
				ID:       id,
				Priority: wjobs[idx].Priority,
				Run: func(ctx context.Context) engine.Result {
					ran.Store(true)
					ly.tr.end(ws)
					// The served path keys the job a second time inside
					// the cached engine; the replay does the same.
					k, err := ly.key(req, ej)
					if err != nil {
						return engine.Result{Err: err}
					}
					return ly.lookup(ctx, req, k, ej)
				},
			})
			if err != nil {
				return le.set(fmt.Errorf("queue submit: %w", err))
			}
			go func(idx int, id string) {
				snap, found, err := q.Wait(ctx, id)
				if !ran.Load() {
					ly.tr.end(ws) // coalesced: the whole wait was for another run
				}
				fin <- done{idx: idx, snap: snap, ok: found && err == nil}
			}(idx, id)
		}
		for range lines {
			f := <-fin
			j := a.jobs[b*asyncBodyJobs+f.idx]
			if !f.ok || f.snap.State != queue.StateDone {
				l.outs = append(l.outs, outcome{key: j.key, idx: f.idx, fail: missing})
				continue
			}
			var buf bytes.Buffer
			ly.encode(int32(b*asyncBodyJobs+f.idx), f.idx, f.snap.Result, &buf)
			done := time.Now()
			l.samples = append(l.samples, sample{at: done, d: done.Sub(t0), jobs: 1, prio9: j.priority == 9})
			l.outs = append(l.outs, lineOutcome(j.key, f.idx, buf.Bytes()))
			l.jobs++
		}
		return true
	})
	return l, le.err
}

// coreTimes re-runs the core layer on every job the traced replay
// computed — core.NewBase, then Scheduler.Run — untraced, and returns
// the mean µs of each and the total iterations.
func coreTimes(jobs []engine.Job) (baseUS, searchUS float64, iterations int, err error) {
	if len(jobs) == 0 {
		return 0, 0, 0, nil
	}
	var base, search time.Duration
	for _, j := range jobs {
		t0 := time.Now()
		b, err := core.NewBase(j.Graph, j.Options)
		if err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		s, err := b.Scheduler(j.Deadline)
		if err != nil {
			return 0, 0, 0, err
		}
		r, err := s.Run()
		if err != nil {
			return 0, 0, 0, err
		}
		search += time.Since(t1)
		base += t1.Sub(t0)
		iterations += r.Iterations
	}
	n := float64(len(jobs))
	return float64(base.Microseconds()) / n, float64(search.Microseconds()) / n, iterations, nil
}

// allocsPerHit measures heap allocations per cache.Cache.Get hit over
// the given keys, on one goroutine.
func allocsPerHit(c *cache.Cache, keys []string) float64 {
	var before, after runtime.MemStats
	hits := 0
	runtime.ReadMemStats(&before)
	for round := 0; round < 4; round++ {
		for _, k := range keys {
			if _, ok := c.Get(k); ok {
				hits++
			}
		}
	}
	runtime.ReadMemStats(&after)
	if hits == 0 {
		return 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(hits)
}

// median of int64s; 0 for none.
func medianInt64(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
