package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/taskgraph"
	"repro/internal/wire"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestScheduleCacheHit is the serving story end to end: the same
// request twice must yield byte-identical result payloads, with the
// second served from cache (X-Cache: hit, hit counter incremented).
func TestScheduleCacheHit(t *testing.T) {
	s, ts := newTestServer(t)
	const body = `{"fixture":"g3","deadline":230,"strategy":"multistart","restarts":4,"seed":7}`

	resp1, data1 := post(t, ts.URL+"/v1/schedule", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp1.StatusCode, data1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}

	resp2, data2 := post(t, ts.URL+"/v1/schedule", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d: %s", resp2.StatusCode, data2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}

	// Cache status lives in headers only, so a hit returns exactly the
	// bytes a miss computed.
	if !bytes.Equal(data1, data2) {
		t.Fatalf("cached body differs:\nmiss: %s\nhit:  %s", data1, data2)
	}
	var r1 wire.Result
	if err := json.Unmarshal(data1, &r1); err != nil {
		t.Fatalf("bad result body %q: %v", data1, err)
	}
	if r1.Cost <= 0 || len(r1.Order) != 15 {
		t.Fatalf("implausible schedule: %+v", r1)
	}

	st := s.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestScheduleRejectsBadRequests is the decode-time gate over HTTP:
// malformed JSON, NaN deadlines and negative currents are 400s with an
// error envelope, infeasible-but-well-formed jobs are 422s.
func TestScheduleRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name   string
		body   string
		status int
		want   string
	}{
		{"malformed json", `not json`, http.StatusBadRequest, "invalid character"},
		{"NaN deadline", `{"fixture":"g3","deadline":NaN}`, http.StatusBadRequest, "invalid character"},
		{"negative deadline", `{"fixture":"g3","deadline":-1}`, http.StatusBadRequest, "must be positive"},
		{"negative current", `{"graph":{"tasks":[{"id":1,"points":[{"current":-5,"time":1}]}]},"deadline":5}`, http.StatusBadRequest, "current"},
		{"unknown strategy", `{"fixture":"g3","deadline":230,"strategy":"nonsense"}`, http.StatusBadRequest, "unknown strategy"},
		{"unknown fixture", `{"fixture":"g9","deadline":230}`, http.StatusBadRequest, "unknown fixture"},
		{"both graph and fixture", `{"fixture":"g3","graph":{"tasks":[]},"deadline":230}`, http.StatusBadRequest, "both"},
		{"infeasible deadline", `{"fixture":"g3","deadline":1}`, http.StatusUnprocessableEntity, "deadline cannot be met"},
	} {
		resp, data := post(t, ts.URL+"/v1/schedule", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Error == "" {
			t.Errorf("%s: no error envelope in %q (%v)", tc.name, data, err)
			continue
		}
		if !strings.Contains(env.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, env.Error, tc.want)
		}
	}
}

// TestBatchNDJSON: the battbatch contract over HTTP — in-order results,
// per-line errors, blank lines skipped.
func TestBatchNDJSON(t *testing.T) {
	_, ts := newTestServer(t)
	body := strings.Join([]string{
		`{"name":"a","fixture":"g3","deadline":230}`,
		``,
		`not json`,
		`{"name":"c","fixture":"g2","deadline":75,"strategy":"rv-dp"}`,
		`{"name":"d","fixture":"g3","deadline":1}`,
	}, "\n")

	resp, data := post(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d result lines, want 4:\n%s", len(lines), data)
	}
	var results []wire.Result
	for _, l := range lines {
		var r wire.Result
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		results = append(results, r)
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("line %d has index %d", i, r.Index)
		}
	}
	if results[0].Error != "" || results[0].Name != "a" || results[0].Cost <= 0 {
		t.Fatalf("job a should succeed: %+v", results[0])
	}
	if results[1].Error == "" {
		t.Fatalf("unparseable line should carry its parse error: %+v", results[1])
	}
	if results[2].Error != "" || results[2].Strategy != "rv-dp" {
		t.Fatalf("job c should succeed under rv-dp: %+v", results[2])
	}
	if results[3].Error == "" || results[3].Order != nil {
		t.Fatalf("job d should be infeasible: %+v", results[3])
	}
}

// TestBatchDeterministicAndCached: a repeated batch answers entirely
// from cache with an identical scheduling payload.
func TestBatchDeterministicAndCached(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"fixture":"g2","deadline":55}
{"fixture":"g2","deadline":75,"strategy":"withidle"}
{"fixture":"g3","deadline":150,"strategy":"chowdhury"}`

	resp1, data1 := post(t, ts.URL+"/v1/batch", body)
	resp2, data2 := post(t, ts.URL+"/v1/batch", body)
	if !bytes.Equal(data1, data2) {
		t.Fatalf("repeated batch body differs:\n%s\n---\n%s", data1, data2)
	}
	if h := resp1.Header.Get("X-Cache-Hits"); h != "0/3" {
		t.Fatalf("first batch X-Cache-Hits = %q, want 0/3", h)
	}
	if h := resp2.Header.Get("X-Cache-Hits"); h != "3/3" {
		t.Fatalf("second batch X-Cache-Hits = %q, want 3/3", h)
	}
	if st := s.Cache().Stats(); st.Hits < 3 {
		t.Fatalf("repeated batch should hit 3 times, stats %+v", st)
	}
}

// TestBatchJobCap: a batch over the configured job limit is rejected
// outright (413), before any scheduling work — on every batch endpoint,
// and before any line is decoded: an over-limit body of inline graphs
// costs no graph builds.
func TestBatchJobCap(t *testing.T) {
	s := New(Config{MaxBatchJobs: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	endpoints := []string{"/v1/batch", "/v1/jobs/batch", "/v1/jobs/stream"}
	body := strings.Repeat(`{"fixture":"g2","deadline":75}`+"\n", 3)
	for _, ep := range endpoints {
		resp, data := post(t, ts.URL+ep, body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413 (%s)", ep, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), "limit is 2") {
			t.Fatalf("%s: error should name the limit: %s", ep, data)
		}
		if s.Metrics().JobsTotal != 0 {
			t.Fatalf("%s: capped batch must not run any jobs", ep)
		}
	}

	// Three inline G3 graphs, all different: decoding and building them
	// takes thousands of allocations, refusing the body a few dozen.
	var graphs strings.Builder
	for i := 0; i < 3; i++ {
		spec, err := json.Marshal(taskgraph.G3().ToSpec(fmt.Sprintf("g3-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&graphs, `{"graph":%s,"deadline":230}`+"\n", spec)
	}
	h := s.Handler()
	for _, ep := range endpoints {
		allocs := testing.AllocsPerRun(5, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep, strings.NewReader(graphs.String())))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: status = %d, want 413", ep, rec.Code)
			}
		})
		if allocs > 200 {
			t.Errorf("%s: refusing an over-limit batch took %.0f allocations; its lines were decoded", ep, allocs)
		}
	}
}

// TestBatchRepeatedGraphMatchesSchedule: lines repeating one inline
// graph (decoded once per body and shared) answer, on the sync batch and
// the ordered async stream alike, exactly the bytes POST /v1/schedule
// answers for each line alone, index aside.
func TestBatchRepeatedGraphMatchesSchedule(t *testing.T) {
	_, ts := newJobsServer(t, Config{Workers: 2})
	spec, err := json.Marshal(taskgraph.G2().ToSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, tail := range []string{
		`"deadline":55`,
		`"deadline":60`,
		`"deadline":75,"name":"n"`,
		`"deadline":75,"strategy":"rv-dp"`,
		`"deadline":1`, // infeasible: an error result
		`"deadline":68,"battery":{"kind":"ideal"}`,
	} {
		lines = append(lines, fmt.Sprintf(`{"graph":%s,%s}`, spec, tail))
	}
	want := make([][]byte, len(lines))
	for i, line := range lines {
		_, want[i] = post(t, ts.URL+"/v1/schedule", line)
		if failed := bytes.Contains(want[i], []byte(`"error"`)); failed != (i == 4) {
			t.Fatalf("line %d: unexpected /v1/schedule answer %s", i, want[i])
		}
	}
	body := strings.Join(lines, "\n")
	for _, ep := range []string{"/v1/batch", "/v1/jobs/stream?ordered=1"} {
		resp, data := post(t, ts.URL+ep, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ep, resp.StatusCode, data)
		}
		got := bytes.SplitAfter(data, []byte("\n"))
		if len(got) != len(lines)+1 || len(got[len(lines)]) != 0 {
			t.Fatalf("%s: %d result lines for %d jobs:\n%s", ep, len(got)-1, len(lines), data)
		}
		for i := range lines {
			line := bytes.Replace(got[i], []byte(fmt.Sprintf(`{"index":%d,`, i)), []byte(`{"index":0,`), 1)
			if !bytes.Equal(line, want[i]) {
				t.Errorf("%s line %d differs from /v1/schedule:\n got %s\nwant %s", ep, i, got[i], want[i])
			}
		}
	}
}

// TestFixturesEndpoint serves the shared registry.
func TestFixturesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := get(t, ts.URL+"/v1/fixtures")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var infos []taskgraph.FixtureInfo
	if err := json.Unmarshal(data, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "g2" || infos[1].Name != "g3" {
		t.Fatalf("unexpected registry: %+v", infos)
	}
	if infos[1].Tasks != 15 || len(infos[1].Deadlines) != 3 {
		t.Fatalf("g3 info wrong: %+v", infos[1])
	}
}

// TestHealthzAndMetrics: liveness plus counter plumbing.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}

	post(t, ts.URL+"/v1/schedule", `{"fixture":"g2","deadline":75}`)
	post(t, ts.URL+"/v1/schedule", `{"fixture":"g2","deadline":75}`)

	_, data = get(t, ts.URL+"/metrics")
	var snap MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, data)
	}
	if snap.Requests["schedule"] != 2 || snap.Requests["healthz"] != 1 {
		t.Fatalf("request counters wrong: %+v", snap)
	}
	if snap.Cache == nil || snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Fatalf("cache counters wrong: %+v", snap.Cache)
	}
	if snap.JobsTotal != 2 || snap.InFlight != 0 {
		t.Fatalf("job/in-flight counters wrong: %+v", snap)
	}
}

// TestMethodNotAllowed: the method-scoped mux turns a GET on a POST
// route into a 405.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := get(t, ts.URL+"/v1/schedule")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

// TestInFlightLimitRejectsDeadRequests: a request whose context is
// already done cannot take an in-flight slot and gets a 503.
func TestInFlightLimitRejectsDeadRequests(t *testing.T) {
	s := New(Config{MaxInFlight: 1})
	// Fill the only slot so acquire must wait, then offer a dead request.
	s.sem <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule",
		strings.NewReader(`{"fixture":"g2","deadline":75}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if s.Metrics().Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.Metrics().Rejected)
	}
}

// TestCloseFailsQueuedRequestsFast: once the server is draining, a
// request waiting for capacity gets an immediate 503 instead of
// blocking graceful shutdown.
func TestCloseFailsQueuedRequestsFast(t *testing.T) {
	s := New(Config{MaxInFlight: 1})
	s.sem <- struct{}{} // saturate: the next request must queue
	s.Close()
	s.Close() // idempotent

	req := httptest.NewRequest(http.MethodPost, "/v1/schedule",
		strings.NewReader(`{"fixture":"g2","deadline":75}`))
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued request did not fail fast after Close")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
}

// TestAccessLog emits one JSON line per request with the load-bearing
// fields.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{AccessLog: log.New(&buf, "", 0)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts.URL+"/healthz")
	line := strings.TrimSpace(buf.String())
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line not JSON: %v\n%s", err, line)
	}
	if rec["method"] != "GET" || rec["path"] != "/healthz" || rec["status"] != float64(200) {
		t.Fatalf("access log fields wrong: %v", rec)
	}
}
