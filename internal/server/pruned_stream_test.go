package server

// Regression tests for POST /v1/jobs/stream on jobs that finish and
// age out of retention before the handler waits on them. The handler
// used to look each job up by ID: the ordered path once dressed the
// non-terminal admission snapshot up as a false "job aborted" line, and
// then both paths ended the stream early instead, losing the lines of
// jobs that had completed. Each line now waits on the job it was
// admitted as (queue.Await), so every admitted line arrives with its
// real outcome.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestOrderedStreamDoesNotFakeAbortForPrunedJob(t *testing.T) {
	// Workers: 1 serializes real computations through a single engine
	// slot (cache hits bypass it); negative retention prunes terminal
	// jobs on the very next Submit — the aging-out the bug needs.
	s, ts := newJobsServer(t, Config{Workers: 1, JobRetention: -time.Nanosecond})

	const fast = `{"fixture":"g3","deadline":230,"strategy":"iterative"}`
	if resp, data := post(t, ts.URL+"/v1/schedule", fast); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming the fast job: %d: %s", resp.StatusCode, data)
	}
	slow := slowJob(31)

	// Occupy the engine slot with the slow job, then run the fast one:
	// a cache hit, done immediately, retained until the next Submit.
	stSlow, _ := submitJob(t, ts.URL, slow)
	stFast, _ := submitJob(t, ts.URL, fast)
	pollUntil(t, ts.URL, stFast.ID, terminal)

	// Ordered stream [slow, fast]: admission coalesces onto the running
	// slow job (pruning the retained fast one) and re-submits the fast
	// job; the handler then blocks on the slow job with the fast job's
	// line still owed.
	type streamOut struct {
		lines []string
		err   error
	}
	outc := make(chan streamOut, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs/stream?ordered=1", "application/x-ndjson",
			strings.NewReader(slow+"\n"+fast+"\n"))
		if err != nil {
			outc <- streamOut{err: err}
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		var lines []string
		for _, l := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(l) != "" {
				lines = append(lines, l)
			}
		}
		outc <- streamOut{lines: lines, err: err}
	}()

	// Admission done = all four Submits counted (two direct, two from
	// the stream; Submitted includes coalesced ones).
	waitDeadline := time.Now().Add(30 * time.Second)
	for s.jobs.Stats().Submitted < 4 {
		if time.Now().After(waitDeadline) {
			t.Fatal("stream admission never happened")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The re-submitted fast job completes (cache hit again)…
	pollUntil(t, ts.URL, stFast.ID, terminal)
	// …and the next Submit prunes it out of the queue entirely.
	if _, resp := submitJob(t, ts.URL, slowJob(32)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pruning submit: status %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/"+stFast.ID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fast job still pollable (status %d); prune did not happen", resp.StatusCode)
	}

	// Abort the slow job. The handler emits a genuine aborted line for
	// index 0, then the fast job's real line for index 1: it completed
	// before it was pruned, so it is neither lost nor reported aborted.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+stSlow.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	var out streamOut
	select {
	case out = <-outc:
	case <-time.After(30 * time.Second):
		t.Fatal("stream never finished")
	}
	if out.err != nil {
		t.Fatalf("reading stream: %v", out.err)
	}
	if len(out.lines) != 2 {
		t.Fatalf("stream emitted %d lines, want 2 (the aborted slow job, then the fast job):\n%s",
			len(out.lines), strings.Join(out.lines, "\n"))
	}
	var aborted, done wire.Result
	if err := json.Unmarshal([]byte(out.lines[0]), &aborted); err != nil {
		t.Fatalf("bad stream line %q: %v", out.lines[0], err)
	}
	if aborted.Index != 0 || aborted.Code != wire.CodeAborted {
		t.Fatalf("stream line 0 = %+v, want the index-0 abort", aborted)
	}
	if err := json.Unmarshal([]byte(out.lines[1]), &done); err != nil {
		t.Fatalf("bad stream line %q: %v", out.lines[1], err)
	}
	_, syncBody := post(t, ts.URL+"/v1/schedule", fast)
	var want wire.Result
	if err := json.Unmarshal(syncBody, &want); err != nil {
		t.Fatalf("bad sync body %q: %v", syncBody, err)
	}
	want.Index = 1
	if !reflect.DeepEqual(done, want) {
		t.Fatalf("stream line 1 = %+v, want the fast job's result %+v", done, want)
	}
}

// TestUnorderedStreamKeepsPrunedJobs: with negative retention every
// admission prunes the jobs that finished before it, so the cache-hit
// jobs of a warm batch routinely complete and vanish from the queue
// before the handler waits on them. Every admitted line must still
// arrive, byte-identical to the sync /v1/batch line of the same index.
func TestUnorderedStreamKeepsPrunedJobs(t *testing.T) {
	_, ts := newJobsServer(t, Config{Workers: 2, JobRetention: -time.Nanosecond})
	var batch strings.Builder
	const n = 64
	for i := 0; i < n; i++ {
		fmt.Fprintf(&batch, `{"name":"j%d","fixture":"g%d","deadline":%d}`+"\n", i, 2+i%2, 150+i)
	}
	// The sync batch warms the cache and gives the reference lines.
	syncResp, syncBody := post(t, ts.URL+"/v1/batch", batch.String())
	if syncResp.StatusCode != http.StatusOK {
		t.Fatalf("sync batch status %d: %s", syncResp.StatusCode, syncBody)
	}
	want := bytes.SplitAfter(syncBody, []byte("\n"))[:n]

	for rep := 0; rep < 5; rep++ {
		resp, body := post(t, ts.URL+"/v1/jobs/stream", batch.String())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rep %d: stream status %d: %s", rep, resp.StatusCode, body)
		}
		lines := bytes.SplitAfter(body, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		if len(lines) != n {
			t.Fatalf("rep %d: stream emitted %d of %d lines", rep, len(lines), n)
		}
		seen := make([]bool, n)
		for _, line := range lines {
			var r wire.Result
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("rep %d: bad line %q: %v", rep, line, err)
			}
			if r.Index < 0 || r.Index >= n || seen[r.Index] {
				t.Fatalf("rep %d: line index %d out of range or repeated", rep, r.Index)
			}
			seen[r.Index] = true
			if !bytes.Equal(line, want[r.Index]) {
				t.Fatalf("rep %d: line %d differs from /v1/batch:\nstream: %s\nsync:   %s", rep, r.Index, line, want[r.Index])
			}
		}
	}
}

// TestStreamDoneJobRacingSubmit: GET /v1/jobs/{id}/stream on a done job
// while other submissions prune it (negative retention drops terminal
// jobs on every Submit). The handler used to look the ID up a second
// time before waiting, so a prune in between answered 200 with an empty
// body. A stream may now 404 (pruned before its lookup), but every 200
// carries exactly the job's one line, byte-identical to /v1/schedule.
func TestStreamDoneJobRacingSubmit(t *testing.T) {
	_, ts := newJobsServer(t, Config{Workers: 2, JobRetention: -time.Nanosecond})
	const job = `{"fixture":"g3","deadline":230}`
	resp, want := post(t, ts.URL+"/v1/schedule", job)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync schedule status %d: %s", resp.StatusCode, want)
	}
	// The pruning submissions are cache hits too, so each rep is fast.
	const pruners = 4
	var others [pruners]string
	for i := range others {
		others[i] = fmt.Sprintf(`{"fixture":"g3","deadline":%d}`, 231+i)
		if resp, data := post(t, ts.URL+"/v1/schedule", others[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("warming %s: status %d: %s", others[i], resp.StatusCode, data)
		}
	}

	streamed := 0
	for rep := 0; rep < 1000; rep++ {
		st, _ := submitJob(t, ts.URL, job)
		pollUntil(t, ts.URL, st.ID, terminal)

		var wg sync.WaitGroup
		for _, other := range others {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(other)); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		wg.Wait()
		if err != nil {
			t.Fatalf("rep %d: reading stream: %v", rep, err)
		}
		switch resp.StatusCode {
		case http.StatusNotFound:
		case http.StatusOK:
			streamed++
			if !bytes.Equal(body, want) {
				t.Fatalf("rep %d: stream body differs from /v1/schedule:\nstream: %q\nsync:   %q", rep, body, want)
			}
		default:
			t.Fatalf("rep %d: stream status %d: %s", rep, resp.StatusCode, body)
		}
	}
	if streamed == 0 {
		t.Fatal("every stream 404ed; the race was never exercised")
	}
}
