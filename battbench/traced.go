package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/store"
)

// timedLayers maps each per-layer time metric to the span it reads.
var timedLayers = []struct{ metric, span string }{
	{"wire.decode_us", "wire.decode"},
	{"wire.build_us", "wire.build"},
	{"wire.encode_us", "wire.encode"},
	{"cache.key_us", "cache.key"},
	{"cache.lookup_us", "cache.lookup"},
	{"store.read_us", "store.read"},
	{"store.write_us", "store.write"},
	{"queue.wait_us", "queue.wait"},
	{"engine.gate_us", "engine.gate"},
	{"engine.run_us", "engine.run"},
}

// replayPair is an untraced and a traced replay of the same requests.
type replayPair struct {
	untraced, traced *load
	ly               *layers // the traced replay's layers
	scans            []time.Duration
}

// live is a count pass against the daemon: its load, counters and the
// sigma of its fixed set.
type live struct {
	l     *load
	cnt   counts
	sigma float64
}

// exactly reports whether two count passes agree exactly, printing the
// difference when they do not.
func exactly(a, b live) bool {
	if a.cnt == b.cnt && a.sigma == b.sigma {
		return true
	}
	fmt.Printf("exact-count violation: %+v sigma %v vs %+v sigma %v\n", a.cnt, a.sigma, b.cnt, b.sigma)
	return false
}

// layerMetrics turns a traced replay and its live count pass into the
// per-layer metrics. stage is the per-unit stage sum in ns; prio9 says
// which units are priority-9 jobs (nil on the sync workloads).
func layerMetrics(r *result, p *replayPair, c live, stage map[int32]int64, prio9 func(req int32) bool) error {
	spans := p.ly.tr.spans
	self := selfTimes(spans)
	all := layerMeans(spans, self, nil)
	for _, tl := range timedLayers {
		r.add(tl.metric, all[tl.span], "us")
	}
	var p9 map[string]float64
	if prio9 != nil {
		p9 = layerMeans(spans, self, func(s span) bool { return prio9(s.Req) })
	}
	r.add("queue.wait_us.prio9", p9["queue.wait"], "us")

	r.add("cache.allocs_per_hit", allocsPerHit(p.ly.mem, p.ly.keys), "allocs")
	r.add("cache.hits", float64(c.cnt.Hits), "count")
	r.add("cache.misses", float64(c.cnt.Misses), "count")
	r.add("cache.disk_hits", float64(c.cnt.DiskHits), "count")
	r.add("cache.evictions", float64(c.cnt.Evictions), "count")
	r.add("cache.dedups", float64(c.cnt.Dedups), "count")
	var scan float64
	if len(p.scans) > 0 {
		scan = medianDuration(p.scans).Seconds()
	}
	r.add("store.scan_s", scan, "s")
	r.add("queue.coalesced", float64(c.cnt.Coalesced), "count")
	r.add("queue.rejected", float64(c.cnt.Rejected), "count")

	baseUS, searchUS, iters, err := coreTimes(p.ly.computed)
	if err != nil {
		return err
	}
	r.add("core.base_us", baseUS, "us")
	r.add("core.search_us", searchUS, "us")
	r.add("core.iterations", float64(iters), "count")

	sums := make([]int64, 0, len(stage))
	for _, v := range stage {
		sums = append(sums, v)
	}
	stageUS := float64(medianInt64(sums)) / 1e3
	liveUS := quantile(c.l.samples, 0.5) * 1e3
	r.add("trace.stage_sum_us", stageUS, "us")
	r.add("trace.latency_p50_us", liveUS, "us")
	r.add("server.residual_us", liveUS-stageUS, "us")
	r.add("server.error_responses", float64(c.cnt.ErrorResponses), "count")
	r.add("trace.overhead_share", p.traced.busy().Seconds()/p.untraced.busy().Seconds()-1, "ratio")
	fmt.Printf("reconcile: traced stage sum p50 %.1fus + residual %.1fus = untraced live p50 %.1fus; replay %.3fs untraced, %.3fs traced\n",
		stageUS, liveUS-stageUS, liveUS, p.untraced.busy().Seconds(), p.traced.busy().Seconds())
	return nil
}

// writeSpans writes the traced replay's spans, one JSON object a line,
// under .bench_build/traces.
func writeSpans(e *env, workload string, tr *tracer) error {
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return nil
}

// --- hot-fixture ---

func hotLive(ctx context.Context, e *env, h *hotSet) (live, error) {
	d, err := startDaemon(e.daemon)
	if err != nil {
		return live{}, err
	}
	defer d.stop()
	c := newHTTPClient(d, e.clients)
	warm, err := hotWarm(ctx, e, c, h)
	if err != nil {
		return live{}, err
	}
	m0, err := d.metrics(c.Client)
	if err != nil {
		return live{}, err
	}
	l, err := hotRun(ctx, e, c, h, func(i int) bool { return i >= hotTraceRequests })
	if err != nil {
		return live{}, err
	}
	m1, err := d.metrics(c.Client)
	if err != nil {
		return live{}, err
	}
	sigma := sigmaMean(warm.outs)
	l.outs = append(l.outs, warm.outs...)
	return live{l: l, cnt: countsBetween(m0, m1), sigma: sigma}, nil
}

func hotTraced(e *env) (*result, error) {
	ctx := context.Background()
	h := newHotSet(e.seed)
	expect, err := hotReference(e, h)
	if err != nil {
		return nil, err
	}
	a, err := hotLive(ctx, e, h)
	if err != nil {
		return nil, err
	}
	b, err := hotLive(ctx, e, h)
	if err != nil {
		return nil, err
	}
	p := &replayPair{}
	if p.untraced, err = replayHot(newLayers(nil, nil), h, hotTraceRequests, e.clients); err != nil {
		return nil, err
	}
	p.ly = newLayers(newTracer(), nil)
	if p.traced, err = replayHot(p.ly, h, hotTraceRequests, e.clients); err != nil {
		return nil, err
	}
	r := &result{exact: exactly(a, b)}
	for _, l := range []*load{a.l, b.l, p.untraced, p.traced} {
		r.verdict.add(check(l.outs, expect))
	}
	spans := p.ly.tr.spans
	if err := layerMetrics(r, p, a, stageSums(spans, selfTimes(spans)), nil); err != nil {
		return nil, err
	}
	return r, writeSpans(e, hotFixture, p.ly.tr)
}

// --- cold-sweep ---

func sweepLive(ctx context.Context, e *env) (live, error) {
	d, err := startDaemon(e.daemon)
	if err != nil {
		return live{}, err
	}
	defer d.stop()
	c := newHTTPClient(d, e.clients)
	m0, err := d.metrics(c.Client)
	if err != nil {
		return live{}, err
	}
	l, err := sweepRun(ctx, e, c, 0, func(i int) bool { return i >= sweepTraceRequests })
	if err != nil {
		return live{}, err
	}
	m1, err := d.metrics(c.Client)
	if err != nil {
		return live{}, err
	}
	return live{l: l, cnt: countsBetween(m0, m1), sigma: sigmaMean(l.outs)}, nil
}

func sweepTraced(e *env) (*result, error) {
	ctx := context.Background()
	a, err := sweepLive(ctx, e)
	if err != nil {
		return nil, err
	}
	b, err := sweepLive(ctx, e)
	if err != nil {
		return nil, err
	}
	p := &replayPair{}
	if p.untraced, err = replaySweep(newLayers(nil, nil), e.seed, sweepTraceRequests, e.clients); err != nil {
		return nil, err
	}
	p.ly = newLayers(newTracer(), nil)
	if p.traced, err = replaySweep(p.ly, e.seed, sweepTraceRequests, e.clients); err != nil {
		return nil, err
	}
	reqs := make([]int, sweepTraceRequests)
	for i := range reqs {
		reqs[i] = i
	}
	expect, err := sweepReference(e, reqs)
	if err != nil {
		return nil, err
	}
	r := &result{exact: exactly(a, b)}
	for _, l := range []*load{a.l, b.l, p.untraced, p.traced} {
		r.verdict.add(check(l.outs, expect))
	}
	spans := p.ly.tr.spans
	if err := layerMetrics(r, p, a, stageSums(spans, selfTimes(spans)), nil); err != nil {
		return nil, err
	}
	return r, writeSpans(e, coldSweep, p.ly.tr)
}

// --- async-restart ---

// openCopy opens a fresh link copy of the pristine store, timing the
// warm-start scan.
func openCopy(e *env, pristine, name string) (*store.Store, time.Duration, error) {
	dir := filepath.Join(e.work, name)
	if err := linkTree(pristine, dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	st, _, err := store.Open(dir, 0)
	return st, time.Since(t0), err
}

// asyncStageSums accounts each job's latency from its body's start:
// every span of the body's jobs that ended before this job's queue wait
// began (decoding the whole body, keying the jobs before it) plus the
// job's own spans from then on.
func asyncStageSums(spans []span, self []int64) map[int32]int64 {
	byReq := map[int32][]int{}
	waitStart := map[int32]int64{}
	for i, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], i)
		if s.Name == "queue.wait" {
			waitStart[s.Req] = s.Start
		}
	}
	out := map[int32]int64{}
	for req, ws := range waitStart {
		body := req / asyncBodyJobs * asyncBodyJobs
		var sum int64
		for j := body; j < body+asyncBodyJobs; j++ {
			for _, i := range byReq[j] {
				s := spans[i]
				if s.End <= ws || (j == req && s.Start >= ws) {
					sum += self[i]
				}
			}
		}
		out[req] = sum
	}
	return out
}

func asyncTraced(e *env) (*result, error) {
	ctx := context.Background()
	a := newAsyncSet(e.seed)
	pristine, expect, err := asyncFixture(e, a)
	if err != nil {
		return nil, err
	}
	var passes [2]live
	for n := range passes {
		l, _, _, cnt, err := asyncPass(ctx, e, a, pristine, n, true)
		if err != nil {
			return nil, err
		}
		passes[n] = live{l: l, cnt: cnt, sigma: sigmaMean(l.outs)}
	}
	p := &replayPair{}
	st, scan, err := openCopy(e, pristine, "replay-untraced")
	if err != nil {
		return nil, err
	}
	p.scans = append(p.scans, scan)
	if p.untraced, err = replayAsync(newLayers(nil, st), a, e.clients); err != nil {
		return nil, err
	}
	if st, scan, err = openCopy(e, pristine, "replay-traced"); err != nil {
		return nil, err
	}
	p.scans = append(p.scans, scan)
	p.ly = newLayers(newTracer(), st)
	if p.traced, err = replayAsync(p.ly, a, e.clients); err != nil {
		return nil, err
	}
	if _, scan, err = openCopy(e, pristine, "scan"); err != nil {
		return nil, err
	}
	p.scans = append(p.scans, scan)
	r := &result{exact: exactly(passes[0], passes[1])}
	for _, l := range []*load{passes[0].l, passes[1].l, p.untraced, p.traced} {
		r.verdict.add(check(l.outs, expect))
	}
	spans := p.ly.tr.spans
	prio9 := func(req int32) bool { return req >= 0 && a.jobs[req].priority == 9 }
	if err := layerMetrics(r, p, passes[0], asyncStageSums(spans, selfTimes(spans)), prio9); err != nil {
		return nil, err
	}
	return r, writeSpans(e, asyncRestart, p.ly.tr)
}
