package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// daemon is one battschedd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	setup  time.Duration
	stderr *tailBuffer
	exited chan struct{}
}

// tailBuffer keeps the last bytes a process wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// startDaemon spawns battschedd on a free loopback port and waits until
// GET /readyz answers 200. setup is the time from spawn to that answer.
func startDaemon(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, stderr: &tailBuffer{}, exited: make(chan struct{})}
	pr, pw := io.Pipe()
	cmd.Stderr = pw
	addrc := make(chan string, 1)
	// The scanner goroutine ends when the process has exited and the
	// Wait goroutine below closes the pipe.
	go func() {
		sc := bufio.NewScanner(pr)
		sent := false
		for sc.Scan() {
			ln := sc.Text()
			d.stderr.Write([]byte(ln + "\n"))
			if _, addr, ok := strings.Cut(ln, "listening on "); ok && !sent {
				addrc <- addr
				sent = true
			}
		}
		io.Copy(io.Discard, pr)
	}()
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		pw.Close()
		return nil, fmt.Errorf("starting battschedd: %w", err)
	}
	go func() {
		cmd.Wait()
		pw.Close()
		close(d.exited)
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-d.exited:
		return nil, fmt.Errorf("battschedd exited during start-up: %s", d.stderr)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("battschedd did not report its address within 60s")
	}
	d.base = "http://" + addr
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(begin) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("battschedd not ready within 60s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.setup = time.Since(begin)
	return d, nil
}

// stop terminates the daemon (SIGTERM, SIGKILL after 10s) and waits
// for it to exit. Safe to call more than once.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// rssPeakMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading daemon status: %w", err)
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in daemon status")
}

// metrics fetches the daemon's GET /metrics counters.
func (d *daemon) metrics(c *http.Client) (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	resp, err := c.Get(d.base + "/metrics")
	if err != nil {
		return snap, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decoding /metrics: %w", err)
	}
	return snap, nil
}

// counts are the daemon counters the benchmark reports, as deltas over
// a window. They must repeat exactly for a given seed.
type counts struct {
	Hits, Misses, DiskHits, Evictions, Dedups uint64
	Coalesced, Rejected, ErrorResponses       uint64
}

func countsBetween(a, b server.MetricsSnapshot) counts {
	var c counts
	if a.Cache != nil && b.Cache != nil {
		c.Hits = b.Cache.Hits - a.Cache.Hits
		c.Misses = b.Cache.Misses - a.Cache.Misses
		c.DiskHits = b.Cache.DiskHits - a.Cache.DiskHits
		c.Evictions = b.Cache.Evictions - a.Cache.Evictions
		c.Dedups = b.Cache.Dedups - a.Cache.Dedups
	}
	c.Coalesced = b.JobsAsync.Coalesced - a.JobsAsync.Coalesced
	c.Rejected = b.RejectedQueue - a.RejectedQueue
	c.ErrorResponses = b.ErrorCount - a.ErrorCount
	return c
}

// httpClient talks to one daemon over at most conns connections, one
// per closed-loop client.
type httpClient struct {
	*http.Client
	base string
}

func newHTTPClient(d *daemon, conns int) *httpClient {
	return &httpClient{&http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}, d.base}
}

// post sends one request and returns the status and whole body.
func (c *httpClient) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}
