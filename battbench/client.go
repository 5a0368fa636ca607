package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// failKind classifies a job the benchmark did not get a correct result
// line for. Every kind counts toward failed_share.
type failKind uint8

const (
	ok         failKind = iota
	non2xx              // the request's response status was not 2xx
	errorLine           // the result line carries an "error"
	missing             // the stream ended without the job's line
	mismatched          // the line differs from the reference bytes
)

var failNames = [...]string{"ok", "non_2xx", "error_lines", "missing_lines", "mismatched_lines"}

// outcome is what one job's result line looked like when it was served.
// key identifies the job's content; idx is the position the line
// reports (its "index"), which is part of the expected bytes.
type outcome struct {
	key, idx int
	digest   [sha256.Size]byte
	cost     float64
	fail     failKind
	sigma    bool // the line is in the workload's fixed sigma_mean set
}

// sample is one latency observation: when it completed, how long it
// took and how many jobs it answered.
type sample struct {
	at    time.Time
	d     time.Duration
	jobs  int
	prio9 bool
}

// segment is one closed loop's stretch of wall time, from its start to
// its last answer.
type segment struct {
	begin time.Time
	busy  time.Duration
}

// load is what closed-loop runs against the daemon observed.
type load struct {
	samples []sample
	outs    []outcome
	jobs    int       // schedules answered, whether correct or not
	segs    []segment // the loops merged into this load
}

func (l *load) merge(o *load) {
	l.samples = append(l.samples, o.samples...)
	l.outs = append(l.outs, o.outs...)
	l.jobs += o.jobs
	l.segs = append(l.segs, o.segs...)
}

// busy is the wall time the clients were sending.
func (l *load) busy() time.Duration {
	var d time.Duration
	for _, s := range l.segs {
		d += s.busy
	}
	return d
}

// costOf reads the "cost" field of an encoded result line without a
// full decode; 0 when absent.
func costOf(line []byte) float64 {
	i := bytes.Index(line, []byte(`"cost":`))
	if i < 0 {
		return 0
	}
	rest := line[i+len(`"cost":`):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(string(rest[:j]), 64)
	return v
}

// lineOutcome records one served result line.
func lineOutcome(key, idx int, ln []byte) outcome {
	o := outcome{key: key, idx: idx, digest: sha256.Sum256(ln), cost: costOf(ln)}
	if bytes.Contains(ln, []byte(`"error":`)) {
		o.fail = errorLine
	}
	return o
}

// indexOf reads the leading "index" field of a result line.
func indexOf(ln []byte) (int, bool) {
	rest, found := bytes.CutPrefix(ln, []byte(`{"index":`))
	if !found {
		return 0, false
	}
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, false
	}
	v, err := strconv.Atoi(string(rest[:j]))
	return v, err == nil
}

// splitLines splits an NDJSON body into lines, each keeping its newline.
func splitLines(body []byte) [][]byte {
	var out [][]byte
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			out = append(out, body)
			break
		}
		out = append(out, body[:i+1])
		body = body[i+1:]
	}
	return out
}

// closedLoop runs clients goroutines, each calling step with the next
// sequence number until step reports false, and returns the merged
// per-client observations.
func closedLoop(clients int, step func(i int, l *load) bool) *load {
	var next atomic.Int64
	parts := make([]load, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(l *load) {
			defer wg.Done()
			for step(int(next.Add(1)-1), l) {
			}
		}(&parts[c])
	}
	wg.Wait()
	out := &load{segs: []segment{{begin, time.Since(begin)}}}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// sweepRequest sends cold-sweep request i and records its eight lines.
func sweepRequest(ctx context.Context, c *httpClient, seed int64, i int, l *load) error {
	body := sweepBody(seed, i)
	t0 := time.Now()
	status, resp, err := c.post(ctx, "/v1/batch", body)
	if err != nil {
		return fmt.Errorf("cold-sweep request %d: %w", i, err)
	}
	done := time.Now()
	lines := splitLines(resp)
	answered := 0
	for k := 0; k < sweepDeadlines; k++ {
		key := i*sweepDeadlines + k
		switch {
		case status/100 != 2:
			l.outs = append(l.outs, outcome{key: key, idx: k, fail: non2xx})
		case k >= len(lines):
			l.outs = append(l.outs, outcome{key: key, idx: k, fail: missing})
		default:
			o := lineOutcome(key, k, lines[k])
			o.sigma = i < sweepSigmaRequests
			l.outs = append(l.outs, o)
			answered++
		}
	}
	l.jobs += answered
	l.samples = append(l.samples, sample{at: done, d: done.Sub(t0), jobs: answered})
	return nil
}

// sweepSigmaRequests is the fixed prefix of cold-sweep requests whose
// schedules make up sigma_mean; it is always served, even past the
// window, so the figure is deterministic for a seed.
const sweepSigmaRequests = 128

// hotRequest sends one hot-fixture job and records its result.
func hotRequest(ctx context.Context, c *httpClient, h *hotSet, key int, sigma bool, l *load) error {
	t0 := time.Now()
	status, resp, err := c.post(ctx, "/v1/schedule", h.keys[key])
	if err != nil {
		return fmt.Errorf("hot-fixture key %d: %w", key, err)
	}
	done := time.Now()
	if status/100 != 2 {
		l.samples = append(l.samples, sample{at: done, d: done.Sub(t0)})
		l.outs = append(l.outs, outcome{key: key, fail: non2xx})
		return nil
	}
	l.samples = append(l.samples, sample{at: done, d: done.Sub(t0), jobs: 1})
	o := lineOutcome(key, 0, resp)
	o.sigma = sigma
	l.outs = append(l.outs, o)
	l.jobs++
	return nil
}

// asyncBody sends pass body b on POST /v1/jobs/stream and records every
// line as it arrives; latency runs from the send to that job's line.
// Jobs whose line never arrives are recorded as missing.
func asyncBody(ctx context.Context, c *httpClient, a *asyncSet, b int, sigma bool, l *load) error {
	jobs := a.jobs[b*asyncBodyJobs : (b+1)*asyncBodyJobs]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs/stream", bytes.NewReader(a.body(b)))
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return fmt.Errorf("async body %d: %w", b, err)
	}
	defer resp.Body.Close()
	seen := make([]bool, len(jobs))
	if resp.StatusCode/100 == 2 {
		rd := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			ln, err := rd.ReadBytes('\n')
			if len(ln) > 0 {
				done := time.Now()
				idx, found := indexOf(ln)
				if !found || idx < 0 || idx >= len(jobs) || seen[idx] {
					// A line that names no unanswered job leaves its
					// job unseen, so that job counts as missing below.
					continue
				}
				seen[idx] = true
				j := jobs[idx]
				l.samples = append(l.samples, sample{at: done, d: done.Sub(t0), jobs: 1, prio9: j.priority == 9})
				o := lineOutcome(j.key, idx, ln)
				o.sigma = sigma
				l.outs = append(l.outs, o)
				l.jobs++
			}
			if err != nil {
				break
			}
		}
	}
	for idx, j := range jobs {
		if seen[idx] {
			continue
		}
		kind := missing
		if resp.StatusCode/100 != 2 {
			kind = non2xx
		}
		l.outs = append(l.outs, outcome{key: j.key, idx: idx, fail: kind})
	}
	return nil
}
