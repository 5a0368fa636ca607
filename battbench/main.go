// Command battbench is the repository's benchmark: it drives a live
// battschedd, built from the checkout with its default.pgo, over HTTP
// with closed-loop clients, checks every served result byte for byte
// against an uncached in-process engine run, and prints end-to-end
// metrics (--trace 0) or per-layer metrics from a traced in-process
// replay of the same requests (--trace 1). See README.md.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash battbench/run.sh --workload hot-fixture --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/store"
)

// setupRounds is how many times a run starts the daemon to time set-up;
// setup_s is their median.
const setupRounds = 15

// Fixed sizes of the traced runs' replays, in latency units.
const (
	hotTraceRequests   = 8192
	sweepTraceRequests = 96
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome: what the final JSON line reports.
type result struct {
	verdict verdict
	exact   bool // every count that must repeat exactly did
	metrics []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// env is what every workload run needs.
type env struct {
	root    string // repository checkout
	daemon  string // battschedd binary
	work    string // scratch directory for this run, removed at exit
	seed    int64
	window  time.Duration
	clients int
	workers int
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "timed window of the end-to-end run, seconds")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
		root     = flag.String("root", ".", "repository checkout holding .bench_build/battschedd")
		selftest = flag.Bool("selftest", false, "check that the checker counts the lines of truncated streams, then exit")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceOn, *root, *selftest); err != nil {
		fmt.Fprintln(os.Stderr, "battbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, traceOn int, root string, selftest bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	e := &env{
		root:    root,
		daemon:  filepath.Join(root, ".bench_build", "battschedd"),
		seed:    seed,
		window:  time.Duration(seconds) * time.Second,
		clients: min(2, runtime.NumCPU()),
		workers: runtime.GOMAXPROCS(0),
	}
	if _, err := os.Stat(e.daemon); err != nil {
		return fmt.Errorf("daemon binary: %w (build it with battbench/run.sh)", err)
	}
	e.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	host, err := hostInfo(root, e.daemon)
	if err != nil {
		return err
	}
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)

	if selftest {
		return selfTest(e)
	}
	if seconds < 1 || (traceOn != 0 && traceOn != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	var res *result
	switch {
	case workload == hotFixture && traceOn == 0:
		res, err = hotE2E(e)
	case workload == hotFixture:
		res, err = hotTraced(e)
	case workload == coldSweep && traceOn == 0:
		res, err = sweepE2E(e)
	case workload == coldSweep:
		res, err = sweepTraced(e)
	case workload == asyncRestart && traceOn == 0:
		res, err = asyncE2E(e)
	case workload == asyncRestart:
		res, err = asyncTraced(e)
	default:
		return fmt.Errorf("unknown --workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return err
	}
	return report(workload, res)
}

// report prints every metric with its unit, then the final JSON line.
func report(workload string, r *result) error {
	v := r.verdict
	fmt.Printf("check %s: %s exact_counts=%v\n", workload, v, r.exact)
	fmt.Printf("metric failed_share = %.6g share (%d of %d jobs)\n", float64(v.failed())/float64(max(v.attempted, 1)), v.failed(), v.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		fmt.Printf("metric %s = %.6g %s\n", m.name, m.value, m.unit)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		ms[m.name] = value{m.value, m.unit}
	}
	if v.attempted == 0 {
		return errors.New("no jobs attempted")
	}
	out, err := json.Marshal(map[string]any{
		"correct":   v.failed() == 0 && r.exact,
		"attempted": v.attempted,
		"failed":    v.failed(),
		"metrics":   ms,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// --- statistics ---

// quantile is the q-quantile (nearest rank) of the samples' latency, ms.
func quantile(samples []sample, q float64) float64 {
	ds := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		ds = append(ds, s.d)
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return float64(ds[max(i, 0)]) / float64(time.Millisecond)
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func isPrio9(s sample) bool { return s.prio9 }

// stretch is one equal stretch of a load's timed window and the samples
// that completed in it.
type stretch struct {
	dur     time.Duration
	samples []sample
}

// stretches cuts every segment of l into equal stretches, about one per
// minSamples kept samples in all and at most 10, and files each sample
// keep accepts under the stretch it completed in. The figures are
// medians over stretches, so a burst of interference from the rest of
// the host that is shorter than half the window barely moves them.
func stretches(l *load, minSamples int, keep func(sample) bool) []stretch {
	var kept []sample
	for _, s := range l.samples {
		if keep == nil || keep(s) {
			kept = append(kept, s)
		}
	}
	width := l.busy() / time.Duration(max(1, min(10, len(kept)/minSamples)))
	var out []stretch
	for _, seg := range l.segs {
		m := max(1, int((seg.busy+width/2)/width))
		first := len(out)
		for i := 0; i < m; i++ {
			out = append(out, stretch{dur: seg.busy / time.Duration(m)})
		}
		for _, s := range kept {
			if off := s.at.Sub(seg.begin); off >= 0 && off <= seg.busy {
				i := first + min(int(off/out[first].dur), m-1)
				out[i].samples = append(out[i].samples, s)
			}
		}
	}
	return out
}

// medianOver is the median of f over the stretches where it is defined.
func medianOver(sl []stretch, f func(stretch) (float64, bool)) float64 {
	var v []float64
	for _, s := range sl {
		if x, ok := f(s); ok {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func rate(s stretch) (float64, bool) {
	n := 0
	for _, x := range s.samples {
		n += x.jobs
	}
	return float64(n) / s.dur.Seconds(), true
}

func quantileOf(q float64) func(stretch) (float64, bool) {
	return func(s stretch) (float64, bool) { return quantile(s.samples, q), len(s.samples) > 0 }
}

// e2eMetrics fills the end-to-end metrics every workload reports, each
// timing a median over stretches of the window. prio9 falls back to
// all samples on workloads without priorities, whose every request is
// in the one (most urgent) class.
func e2eMetrics(r *result, l *load, setups []time.Duration, rss []float64, sigma float64, prio bool) {
	sl := stretches(l, 200, nil)
	r.add("jobs_per_s", medianOver(sl, rate), "1/s")
	r.add("latency_p50_ms", medianOver(sl, quantileOf(0.50)), "ms")
	r.add("latency_p99_ms", medianOver(stretches(l, 1000, nil), quantileOf(0.99)), "ms")
	keep := isPrio9
	if !prio {
		keep = nil
	}
	r.add("prio9_latency_p50_ms", medianOver(stretches(l, 200, keep), quantileOf(0.50)), "ms")
	r.add("setup_s", medianDuration(setups).Seconds(), "s")
	r.add("daemon_rss_peak_mb", median(rss), "MiB")
	r.add("sigma_mean", sigma, "mA.min")
	fmt.Printf("samples %d latency samples, %d jobs in %.3fs, %d stretches\n", len(l.samples), l.jobs, l.busy().Seconds(), len(sl))
}

// --- shared daemon plumbing ---

// spawnSetups starts the daemon setupRounds times, recording each
// set-up time, and returns the last one still running.
func spawnSetups(e *env, args ...string) (*daemon, []time.Duration, error) {
	var setups []time.Duration
	for i := 0; ; i++ {
		d, err := startDaemon(e.daemon, args...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.setup)
		if i == setupRounds-1 {
			return d, setups, nil
		}
		d.stop()
	}
}

// loopErr collects the first error of a closed loop's steps.
type loopErr struct {
	once sync.Once
	err  error
}

func (le *loopErr) set(err error) bool {
	le.once.Do(func() { le.err = err })
	return false
}

// --- hot-fixture ---

func hotReference(e *env, h *hotSet) (func(key, idx int) [sha256.Size]byte, error) {
	ref, err := runReference(h.ref, e.workers)
	if err != nil {
		return nil, err
	}
	digests := make([][sha256.Size]byte, len(ref))
	for k, r := range ref {
		digests[k] = sha256.Sum256(referenceLine(0, r))
	}
	return func(key, _ int) [sha256.Size]byte { return digests[key] }, nil
}

// hotWarm requests every distinct job once, which fills the LRU.
func hotWarm(ctx context.Context, e *env, c *httpClient, h *hotSet) (*load, error) {
	var le loopErr
	l := closedLoop(e.clients, func(i int, l *load) bool {
		if i >= len(h.keys) {
			return false
		}
		if err := hotRequest(ctx, c, h, i, true, l); err != nil {
			return le.set(err)
		}
		return true
	})
	return l, le.err
}

// hotRun sends hot-fixture requests from index 0 until stop.
func hotRun(ctx context.Context, e *env, c *httpClient, h *hotSet, stop func(i int) bool) (*load, error) {
	var le loopErr
	l := closedLoop(e.clients, func(i int, l *load) bool {
		if stop(i) {
			return false
		}
		if err := hotRequest(ctx, c, h, h.key(i), false, l); err != nil {
			return le.set(err)
		}
		return true
	})
	return l, le.err
}

func hotE2E(e *env) (*result, error) {
	ctx := context.Background()
	h := newHotSet(e.seed)
	expect, err := hotReference(e, h)
	if err != nil {
		return nil, err
	}
	d, setups, err := spawnSetups(e)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newHTTPClient(d, e.clients)
	warm, err := hotWarm(ctx, e, c, h)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(e.window)
	win, err := hotRun(ctx, e, c, h, func(int) bool { return time.Now().After(deadline) })
	if err != nil {
		return nil, err
	}
	rss, err := d.rssPeakMB()
	if err != nil {
		return nil, err
	}
	r := &result{exact: true}
	r.verdict = check(warm.outs, expect)
	r.verdict.add(check(win.outs, expect))
	e2eMetrics(r, win, setups, []float64{rss}, sigmaMean(warm.outs), false)
	return r, nil
}

// --- cold-sweep ---

// sweepReference computes the reference lines of the given cold-sweep
// requests on the uncached engine, in parallel, as digests by key.
func sweepReference(e *env, reqs []int) (func(key, idx int) [sha256.Size]byte, error) {
	digests := make(map[int][sha256.Size]byte, len(reqs)*sweepDeadlines)
	var mu sync.Mutex
	var le loopErr
	closedLoop(e.workers, func(i int, _ *load) bool {
		if i >= len(reqs) {
			return false
		}
		res, err := runReference(sweepJobs(e.seed, reqs[i]), 1)
		if err != nil {
			return le.set(err)
		}
		mu.Lock()
		for k, r := range res {
			digests[reqs[i]*sweepDeadlines+k] = sha256.Sum256(referenceLine(k, r))
		}
		mu.Unlock()
		return true
	})
	if le.err != nil {
		return nil, le.err
	}
	return func(key, _ int) [sha256.Size]byte { return digests[key] }, nil
}

// servedRequests lists the distinct requests a cold-sweep load touched.
func servedRequests(outs []outcome) []int {
	seen := map[int]bool{}
	var reqs []int
	for _, o := range outs {
		if r := o.key / sweepDeadlines; !seen[r] {
			seen[r] = true
			reqs = append(reqs, r)
		}
	}
	sort.Ints(reqs)
	return reqs
}

// sweepRun sends cold-sweep requests from index from until stop.
func sweepRun(ctx context.Context, e *env, c *httpClient, from int, stop func(i int) bool) (*load, error) {
	var le loopErr
	l := closedLoop(e.clients, func(i int, l *load) bool {
		if stop(from + i) {
			return false
		}
		if err := sweepRequest(ctx, c, e.seed, from+i, l); err != nil {
			return le.set(err)
		}
		return true
	})
	return l, le.err
}

func sweepE2E(e *env) (*result, error) {
	ctx := context.Background()
	d, setups, err := spawnSetups(e)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newHTTPClient(d, e.clients)
	deadline := time.Now().Add(e.window)
	win, err := sweepRun(ctx, e, c, 0, func(int) bool { return time.Now().After(deadline) })
	if err != nil {
		return nil, err
	}
	// Complete the fixed sigma prefix if the window ended before it.
	served := len(servedRequests(win.outs))
	all := &load{}
	all.merge(win)
	if served < sweepSigmaRequests {
		rest, err := sweepRun(ctx, e, c, served, func(i int) bool { return i >= sweepSigmaRequests })
		if err != nil {
			return nil, err
		}
		all.merge(rest)
	}
	rss, err := d.rssPeakMB()
	if err != nil {
		return nil, err
	}
	expect, err := sweepReference(e, servedRequests(all.outs))
	if err != nil {
		return nil, err
	}
	r := &result{exact: true, verdict: check(all.outs, expect)}
	e2eMetrics(r, win, setups, []float64{rss}, sigmaMean(all.outs), false)
	return r, nil
}

// --- async-restart ---

// asyncFixture computes the reference results of every key and writes
// the stored ones into a pristine store directory.
func asyncFixture(e *env, a *asyncSet) (pristine string, expect func(key, idx int) [sha256.Size]byte, err error) {
	ref, err := runReference(a.ref, e.workers)
	if err != nil {
		return "", nil, err
	}
	pristine = filepath.Join(e.work, "pristine")
	st, _, err := store.OpenFS(pristine, -1, noSyncFS{fault.OS})
	if err != nil {
		return "", nil, err
	}
	for k, r := range ref {
		if !a.stored[k] {
			continue
		}
		key, ok := cache.Key(a.ref[k])
		if !ok {
			return "", nil, fmt.Errorf("async key %d has no cache key", k)
		}
		if err := st.Put(key, r); err != nil {
			return "", nil, err
		}
	}
	expect = func(key, idx int) [sha256.Size]byte { return sha256.Sum256(referenceLine(idx, ref[key])) }
	return pristine, expect, nil
}

// asyncPass runs one pass against a fresh daemon on a fresh copy of the
// pristine store, returning its load, set-up time, peak RSS and the
// daemon's counters over the pass.
func asyncPass(ctx context.Context, e *env, a *asyncSet, pristine string, n int, sigma bool) (*load, time.Duration, float64, counts, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("pass-%d", n))
	if err := linkTree(pristine, dir); err != nil {
		return nil, 0, 0, counts{}, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(e.daemon, "-cache-dir", dir)
	if err != nil {
		return nil, 0, 0, counts{}, err
	}
	defer d.stop()
	c := newHTTPClient(d, e.clients)
	m0, err := d.metrics(c.Client)
	if err != nil {
		return nil, 0, 0, counts{}, err
	}
	var le loopErr
	l := closedLoop(e.clients, func(b int, l *load) bool {
		if b >= asyncPassBodies {
			return false
		}
		if err := asyncBody(ctx, c, a, b, sigma, l); err != nil {
			return le.set(err)
		}
		return true
	})
	if le.err != nil {
		return nil, 0, 0, counts{}, le.err
	}
	m1, err := d.metrics(c.Client)
	if err != nil {
		return nil, 0, 0, counts{}, err
	}
	rss, err := d.rssPeakMB()
	if err != nil {
		return nil, 0, 0, counts{}, err
	}
	return l, d.setup, rss, countsBetween(m0, m1), nil
}

func asyncE2E(e *env) (*result, error) {
	ctx := context.Background()
	a := newAsyncSet(e.seed)
	pristine, expect, err := asyncFixture(e, a)
	if err != nil {
		return nil, err
	}
	all := &load{}
	var setups []time.Duration
	var rss []float64
	var first counts
	r := &result{exact: true}
	begin := time.Now()
	for n := 0; n == 0 || time.Since(begin) < e.window; n++ {
		l, setup, peak, cnt, err := asyncPass(ctx, e, a, pristine, n, n == 0)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			first = cnt
		} else if cnt != first {
			fmt.Printf("exact-count violation: pass %d counts %+v, pass 0 %+v\n", n, cnt, first)
			r.exact = false
		}
		fmt.Printf("pass %d: %d jobs in %.3fs, setup %.4fs, counts %+v\n", n, l.jobs, l.busy().Seconds(), setup.Seconds(), cnt)
		setups = append(setups, setup)
		rss = append(rss, peak)
		all.merge(l)
	}
	// Passes set up once each; top up to setupRounds timed set-ups on
	// the same warm-start scan.
	if len(setups) < setupRounds {
		dir := filepath.Join(e.work, "setup")
		if err := linkTree(pristine, dir); err != nil {
			return nil, err
		}
		for len(setups) < setupRounds {
			d, err := startDaemon(e.daemon, "-cache-dir", dir)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.setup)
			d.stop()
		}
	}
	r.verdict = check(all.outs, expect)
	e2eMetrics(r, all, setups, rss, sigmaMean(all.outs), true)
	return r, nil
}
