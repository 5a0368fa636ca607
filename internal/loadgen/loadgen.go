// Package loadgen is the load-generation and SLO-verification harness
// behind cmd/battload: it drives a live battschedd's async job API with
// a configurable fleet of virtual clients (closed-loop concurrency or
// open-loop arrival rate, mixed priorities, optional duplicate
// submissions to exercise coalescing), records latency histograms for
// the submit, poll and end-to-end phases, and verifies the serving
// contract under load — every accepted job reaches exactly one terminal
// state, none are lost, none complete twice.
//
// The harness is deliberately client-shaped: every request goes through
// internal/client over real HTTP (no shortcuts through internal state),
// so what it measures is what a user of that client sees — retries and
// backoff included — and what it verifies is the wire contract. Results condense into a Result that can be checked against
// an SLO, serialized as JSON, or emitted in `go test -bench` format for
// scripts/benchjson — the same snapshot pipeline the compute
// benchmarks use (BENCH_*.json).
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// Mode selects how virtual clients consume job results.
type Mode string

const (
	// ModePoll submits then polls GET /v1/jobs/{id} until terminal —
	// the REST-idiomatic path, and the one that measures poll latency.
	ModePoll Mode = "poll"
	// ModeStream submits then blocks on GET /v1/jobs/{id}/stream — one
	// long-poll connection per job instead of a poll loop.
	ModeStream Mode = "stream"
)

// Config parameterizes one load run.
type Config struct {
	// BaseURL roots the target server, e.g. "http://127.0.0.1:8347".
	BaseURL string
	// Client is the HTTP client under internal/client; nil builds one
	// sized for Concurrency (idle connection pool large enough that
	// virtual clients do not fight over two keep-alive sockets, the
	// net/http default). Fault tests inject a fault.Transport here.
	Client *http.Client
	// Mode is poll (default) or stream.
	Mode Mode
	// Jobs is how many submissions the run makes in total. Required.
	Jobs int
	// Concurrency is the virtual-client fleet size. Required.
	Concurrency int
	// Rate, when positive, paces submissions to an open-loop target
	// arrival rate (submissions/second) across the whole fleet; 0 runs
	// closed-loop (each client submits as soon as its previous job
	// finished).
	Rate float64
	// PollInterval is the first poll's delay in ModePoll; subsequent
	// polls back off 1.5x up to MaxPollInterval. Defaults 2ms / 50ms.
	PollInterval    time.Duration
	MaxPollInterval time.Duration
	// VerifyTerminal re-polls each job once after observing a terminal
	// state and counts a state change as a double completion. Cheap
	// (terminal polls are lookups) and on by default in battload's
	// assert mode; leave false for pure-throughput measurement.
	VerifyTerminal bool
	// VerifyBytes records each done job's result JSON keyed by job ID
	// and counts any later observation of the same ID whose bytes differ
	// — the determinism half of the serving contract. Duplicate
	// submissions (DupEvery) and chaos-driven resubmissions both
	// re-observe IDs, so this is what proves "byte-identical results"
	// under faults rather than assuming it.
	VerifyBytes bool
	// NewJob builds the i-th submission (0-based). Required. See
	// JobSpec for the standard deterministic generator.
	NewJob func(i int) wire.Job
	// SLO, when non-nil, is checked after the run; violations land in
	// Result.Violations.
	SLO *SLO
}

// The embedded client's tuning: 8 attempts from 50ms is ~6s of
// cumulative patience per call, enough to ride out a SIGKILL + restart
// of the daemon under test.
const (
	clientAttempts = 8
	clientBackoff  = 50 * time.Millisecond
)

// errNoTerminal is a stream that ended without a result line.
var errNoTerminal = errors.New("loadgen: stream ended without a terminal line")

// runState is the shared accounting one run's workers feed.
type runState struct {
	submit, poll, e2e Hist

	attempted      atomic.Int64 // submissions started
	unsent         atomic.Int64 // ctx ended before the submission was attempted
	accepted       atomic.Int64 // submissions the queue admitted (or answered from retention)
	rejected       atomic.Int64 // submissions refused with a final 429 (client retries spent)
	unavailable    atomic.Int64 // submissions refused with a final 503
	errorsFinal    atomic.Int64 // submissions that ended in a non-backpressure error
	done           atomic.Int64 // terminal: result delivered
	doneWithError  atomic.Int64 // subset of done whose result carries a scheduling error
	expired        atomic.Int64 // terminal: ttl_ms lapsed
	aborted        atomic.Int64 // terminal: aborted (drain or DELETE)
	lost           atomic.Int64 // accepted but no terminal state observed — the invariant violation
	doubleTerminal atomic.Int64 // terminal state changed after first observation — the other violation
	polls          atomic.Int64 // status lookups (GET /v1/jobs/{id}), verify re-polls included
	resubmits      atomic.Int64 // resubmissions after a status or stream 404

	byteMismatch atomic.Int64 // same job ID observed with differing result bytes
	results      sync.Map     // job ID -> first observed result JSON (VerifyBytes)
}

// Run executes one load run and reports. The error is only for
// unusable configuration; server-side misbehavior is data, not an
// error — it lands in the Result for Verify and the SLO check.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: Config.BaseURL required")
	}
	if cfg.NewJob == nil {
		return nil, errors.New("loadgen: Config.NewJob required")
	}
	if cfg.Jobs <= 0 || cfg.Concurrency <= 0 {
		return nil, fmt.Errorf("loadgen: Jobs (%d) and Concurrency (%d) must be positive", cfg.Jobs, cfg.Concurrency)
	}
	if cfg.Mode == "" {
		cfg.Mode = ModePoll
	}
	if cfg.Mode != ModePoll && cfg.Mode != ModeStream {
		return nil, fmt.Errorf("loadgen: unknown mode %q", cfg.Mode)
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.MaxPollInterval < cfg.PollInterval {
		cfg.MaxPollInterval = 25 * cfg.PollInterval
	}
	httpc := cfg.Client
	if httpc == nil {
		httpc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        2 * cfg.Concurrency,
			MaxIdleConnsPerHost: 2 * cfg.Concurrency,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
	rc, err := client.New(client.Config{
		BaseURL:     cfg.BaseURL,
		HTTPClient:  httpc,
		MaxAttempts: clientAttempts,
		BaseBackoff: clientBackoff,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}

	st := &runState{}
	var pace chan struct{}
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	if cfg.Rate > 0 {
		pace = make(chan struct{}, cfg.Concurrency)
		go pacer(pctx, cfg.Rate, pace)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= cfg.Jobs {
					return
				}
				if pace != nil {
					select {
					case <-pace:
					case <-ctx.Done():
						st.unsent.Add(1)
						continue // drain the remaining indexes as unsent
					}
				} else if ctx.Err() != nil {
					st.unsent.Add(1)
					continue
				}
				runOne(ctx, rc, cfg, st, i)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)

	cs := rc.Stats()
	res := &Result{
		Mode:           string(cfg.Mode),
		Concurrency:    cfg.Concurrency,
		RateTarget:     cfg.Rate,
		Jobs:           cfg.Jobs,
		DurationMS:     ms(elapsed),
		Attempted:      st.attempted.Load(),
		Unsent:         st.unsent.Load(),
		Accepted:       st.accepted.Load(),
		Rejected:       st.rejected.Load(),
		Unavailable:    st.unavailable.Load(),
		RejectedFinal:  st.rejected.Load() + st.unavailable.Load(),
		Errors:         st.errorsFinal.Load(),
		Done:           st.done.Load(),
		DoneWithError:  st.doneWithError.Load(),
		Expired:        st.expired.Load(),
		Aborted:        st.aborted.Load(),
		Lost:           st.lost.Load(),
		DoubleTerminal: st.doubleTerminal.Load(),
		ByteMismatch:   st.byteMismatch.Load(),
		Resubmits:      st.resubmits.Load(),
		Polls:          st.polls.Load(),
		Submit:         st.submit.Summary(),
		Poll:           st.poll.Summary(),
		E2E:            st.e2e.Summary(),
		Client:         &cs,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.ThroughputJPS = float64(res.Done) / secs
	}
	if cfg.SLO != nil {
		res.Violations = cfg.SLO.check(res)
	}
	return res, nil
}

// pacer feeds tokens at the target rate. A millisecond tick with
// fractional accumulation holds rates from well under one to hundreds
// of thousands per second; tokens beyond the fleet's buffer are dropped
// (a fully busy closed fleet cannot absorb a higher arrival rate — the
// backlog would just hide in the channel).
func pacer(ctx context.Context, rate float64, out chan<- struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	acc := 0.0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			acc += rate / 1000
			for ; acc >= 1; acc-- {
				select {
				case out <- struct{}{}:
				default:
				}
			}
		}
	}
}

// runOne drives one submission through its whole lifecycle: submit,
// then wait — poll with backoff, or one stream GET — until terminal.
// The client has already absorbed transport faults and backpressure;
// this loop handles what retries cannot: a job ID the server no longer
// knows (a restart wiped the in-memory queue, or retention aged the
// terminal out), which the content address makes safe to resubmit —
// the resubmission coalesces or replays, never double-runs.
func runOne(ctx context.Context, rc *client.Client, cfg Config, st *runState, i int) {
	st.attempted.Add(1)
	job := cfg.NewJob(i)
	begin := time.Now()
	status, err := rc.Submit(ctx, job)
	if err != nil {
		var se *client.StatusError
		switch {
		case errors.As(err, &se) && se.Code == http.StatusTooManyRequests:
			st.rejected.Add(1)
		case errors.As(err, &se) && se.Code == http.StatusServiceUnavailable:
			st.unavailable.Add(1)
		default:
			st.errorsFinal.Add(1)
		}
		return
	}
	st.submit.Observe(time.Since(begin))
	st.accepted.Add(1)

	id := status.ID
	interval := cfg.PollInterval
	for !terminalState(status.State) {
		if cfg.Mode == ModeStream {
			status, err = stream(ctx, rc, st, id)
		} else {
			if !sleepCtx(ctx, interval) {
				st.lost.Add(1)
				return
			}
			interval = min(interval*3/2, cfg.MaxPollInterval)
			status, err = poll(ctx, rc, st, id)
		}
		if client.IsNotFound(err) {
			st.resubmits.Add(1)
			status, err = rc.Submit(ctx, job)
		}
		if err != nil {
			// Retries are already spent inside the client (or the
			// stream ended empty): from where this client stands, the
			// job is lost.
			st.lost.Add(1)
			return
		}
	}
	st.e2e.Observe(time.Since(begin))
	recordTerminal(ctx, rc, cfg, st, id, status)
}

// poll is one status lookup, counted and timed as a poll whether it
// waits out a job or re-checks a terminal one.
func poll(ctx context.Context, rc *client.Client, st *runState, id string) (wire.JobStatus, error) {
	t0 := time.Now()
	status, err := rc.Status(ctx, id)
	st.polls.Add(1)
	st.poll.Observe(time.Since(t0))
	return status, err
}

// stream waits on the job's stream endpoint and converts its terminal
// line to the status a poll would have returned. No line is
// errNoTerminal; more than one is a double completion.
func stream(ctx context.Context, rc *client.Client, st *runState, id string) (wire.JobStatus, error) {
	lines, err := rc.Stream(ctx, id)
	if err != nil {
		return wire.JobStatus{}, err
	}
	if len(lines) == 0 {
		return wire.JobStatus{}, errNoTerminal
	}
	if len(lines) > 1 {
		st.doubleTerminal.Add(1)
	}
	line := lines[0]
	status := wire.JobStatus{ID: id, State: wire.StateDone}
	switch line.Code {
	case wire.CodeExpired:
		status.State = wire.StateExpired
	case wire.CodeAborted:
		status.State = wire.StateAborted
	default:
		status.Result = &line
	}
	return status, nil
}

// sleepCtx sleeps d or until ctx ends, reporting whether it slept.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// recordTerminal counts a terminal observation and, when verification
// is on, confirms the state held: a job observed done must still be
// done one poll later — anything else is a second completion. With
// VerifyBytes it also pins the result bytes per job ID: a second
// observation of the same ID (a duplicate submission, a chaos
// resubmission) must carry byte-identical JSON.
func recordTerminal(ctx context.Context, rc *client.Client, cfg Config, st *runState, id string, status wire.JobStatus) {
	res := status.Result
	switch status.State {
	case wire.StateDone:
		st.done.Add(1)
		if res != nil && res.Error != "" {
			st.doneWithError.Add(1)
		}
		if cfg.VerifyBytes && res != nil {
			b, err := json.Marshal(res)
			if err == nil {
				if prev, loaded := st.results.LoadOrStore(id, string(b)); loaded && prev.(string) != string(b) {
					st.byteMismatch.Add(1)
				}
			}
		}
	case wire.StateExpired:
		st.expired.Add(1)
	case wire.StateAborted:
		st.aborted.Add(1)
	default:
		st.doubleTerminal.Add(1) // a "terminal" we do not recognize is corrupt state
		return
	}
	if !cfg.VerifyTerminal {
		return
	}
	again, err := poll(ctx, rc, st, id)
	if err != nil {
		return // retention pruning or shutdown; absence is not a second state
	}
	if again.State != status.State {
		st.doubleTerminal.Add(1)
	}
}

// terminalState mirrors wire's terminal set.
func terminalState(s string) bool {
	return s == wire.StateDone || s == wire.StateExpired || s == wire.StateAborted
}

// Sweep runs the same load at each concurrency level in turn — the
// saturation curve. Levels run sequentially so each measures a quiet
// server warmed by the previous stage (the cache is content-addressed;
// distinct deadlines stay distinct work across stages).
func Sweep(ctx context.Context, cfg Config, levels []int) ([]*Result, error) {
	results := make([]*Result, 0, len(levels))
	for _, c := range levels {
		cfg.Concurrency = c
		res, err := Run(ctx, cfg)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}
