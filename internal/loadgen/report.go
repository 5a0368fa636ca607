// Result, SLO checking and snapshot emission: a load run condenses to
// one Result; a sweep to a slice of them. Results serialize two ways —
// a full JSON report (battload -o) and `go test -bench`-shaped lines
// (battload -bench) that pipe through scripts/benchjson into the same
// BENCH_*.json snapshot format the compute benchmarks use, so the load
// trajectory and the kernel trajectory live in one format.
package loadgen

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/client"
)

// Result is the outcome of one load run at one concurrency level.
type Result struct {
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	RateTarget  float64 `json:"rate_target,omitempty"`
	Jobs        int     `json:"jobs"`
	DurationMS  float64 `json:"duration_ms"`

	// Submission accounting. Attempted = Accepted + RejectedFinal +
	// Errors; Attempted + Unsent = Jobs. Rejected and Unavailable count
	// final refusals — submissions still answered 429 (queue full) or
	// 503 (draining) after the client's retries were spent — and sum to
	// RejectedFinal; the refusals the retries absorbed show in
	// Client.Retries instead.
	Attempted     int64 `json:"attempted"`
	Unsent        int64 `json:"unsent,omitempty"`
	Accepted      int64 `json:"accepted"`
	Rejected      int64 `json:"rejected_429,omitempty"`
	Unavailable   int64 `json:"unavailable_503,omitempty"`
	RejectedFinal int64 `json:"rejected_final,omitempty"`
	Errors        int64 `json:"errors,omitempty"`

	// Terminal accounting. Accepted = Done + Expired + Aborted + Lost.
	Done          int64 `json:"done"`
	DoneWithError int64 `json:"done_with_error,omitempty"`
	Expired       int64 `json:"expired,omitempty"`
	Aborted       int64 `json:"aborted,omitempty"`

	// The invariant violations a correct server never produces.
	// ByteMismatch is only counted when Config.VerifyBytes is on: two
	// observations of the same job ID whose result JSON differs.
	Lost           int64 `json:"lost"`
	DoubleTerminal int64 `json:"double_terminal"`
	ByteMismatch   int64 `json:"byte_mismatch"`

	// Resubmits counts re-submissions after the server forgot a job ID
	// (a status or stream 404: restart or retention ageout).
	Resubmits int64 `json:"resubmits,omitempty"`

	// Polls counts status lookups, the VerifyTerminal re-polls included;
	// the Poll histogram times the same lookups.
	Polls         int64   `json:"polls,omitempty"`
	ThroughputJPS float64 `json:"throughput_jobs_per_sec"`

	// Submit times each accepted submission's whole client.Submit call,
	// retries and backoff waits included; Poll times each status lookup
	// the same way; E2E runs from submit to the terminal observation.
	Submit LatencySummary `json:"submit"`
	Poll   LatencySummary `json:"poll"`
	E2E    LatencySummary `json:"e2e"`

	// Client carries internal/client's own counters (attempts, retries,
	// Retry-After honors) — the proof the resilience was exercised, not
	// just configured. Always set by Run.
	Client *client.Stats `json:"client,omitempty"`

	// Violations lists failed SLO clauses (empty/omitted when the run
	// had no SLO or passed it).
	Violations []string `json:"violations,omitempty"`
}

// Verify checks the serving contract the run observed: every accepted
// job reached exactly one terminal state, and every submission is
// accounted for exactly once. It returns nil when the contract held and
// a single describing error otherwise.
func (r *Result) Verify() error {
	var probs []string
	if r.Lost > 0 {
		probs = append(probs, fmt.Sprintf("%d job(s) lost (accepted but no terminal state observed)", r.Lost))
	}
	if r.DoubleTerminal > 0 {
		probs = append(probs, fmt.Sprintf("%d double completion(s) (terminal state changed after first observation)", r.DoubleTerminal))
	}
	if r.ByteMismatch > 0 {
		probs = append(probs, fmt.Sprintf("%d byte-divergent result(s) (same job ID, different result JSON)", r.ByteMismatch))
	}
	if got := r.Done + r.Expired + r.Aborted + r.Lost; got != r.Accepted {
		probs = append(probs, fmt.Sprintf("terminal accounting mismatch: accepted %d but done+expired+aborted+lost = %d", r.Accepted, got))
	}
	if got := r.Accepted + r.RejectedFinal + r.Errors; got != r.Attempted {
		probs = append(probs, fmt.Sprintf("submission accounting mismatch: attempted %d but accepted+rejected_final+errors = %d", r.Attempted, got))
	}
	if got := r.Attempted + r.Unsent; got != int64(r.Jobs) {
		probs = append(probs, fmt.Sprintf("submission accounting mismatch: jobs %d but attempted+unsent = %d", r.Jobs, got))
	}
	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("loadgen: contract violated at c=%d: %s", r.Concurrency, strings.Join(probs, "; "))
}

// SLO is the service-level objective a run is held to. Zero durations
// disable their clause; MaxErrorRate < 0 disables the rate clause
// (0 means "no errors allowed").
type SLO struct {
	// SubmitP99 bounds the 99th-percentile accepted-submission latency.
	SubmitP99 time.Duration `json:"submit_p99,omitempty"`
	// PollP99 bounds the 99th-percentile status-poll latency.
	PollP99 time.Duration `json:"poll_p99,omitempty"`
	// E2EP99 bounds the 99th-percentile submit-to-done latency.
	E2EP99 time.Duration `json:"e2e_p99,omitempty"`
	// MaxErrorRate bounds (Errors+RejectedFinal)/Attempted: a
	// submission the server still refused after the client's retries
	// failed as surely as one that errored.
	MaxErrorRate float64 `json:"max_error_rate,omitempty"`
}

// check evaluates the SLO against a finished run.
func (s *SLO) check(r *Result) []string {
	var v []string
	clause := func(name string, gotMS float64, want time.Duration) {
		if want > 0 && gotMS > ms(want) {
			v = append(v, fmt.Sprintf("%s %.3fms exceeds SLO %s", name, gotMS, want))
		}
	}
	clause("submit p99", r.Submit.P99MS, s.SubmitP99)
	clause("poll p99", r.Poll.P99MS, s.PollP99)
	clause("e2e p99", r.E2E.P99MS, s.E2EP99)
	if s.MaxErrorRate >= 0 && r.Attempted > 0 {
		if rate := float64(r.Errors+r.RejectedFinal) / float64(r.Attempted); rate > s.MaxErrorRate {
			v = append(v, fmt.Sprintf("error rate %.4f exceeds SLO %.4f", rate, s.MaxErrorRate))
		}
	}
	return v
}

// WriteBench emits the results as `go test -bench`-shaped lines, one
// per metric, prefixed by a pkg header so scripts/benchjson keys them
// "battload:BenchmarkLoad/...". Latency metrics are the histogram
// quantiles; throughput is inverted to ns-per-completed-job so every
// line is an ns/op a bench-snapshot consumer already understands.
func WriteBench(w io.Writer, results ...*Result) error {
	if _, err := fmt.Fprintln(w, "pkg: battload"); err != nil {
		return err
	}
	for _, r := range results {
		base := fmt.Sprintf("BenchmarkLoad/mode=%s/c=%d", r.Mode, r.Concurrency)
		line := func(metric string, valueMS float64) error {
			_, err := fmt.Fprintf(w, "%s/%s \t1\t%.0f ns/op\n", base, metric, valueMS*1e6)
			return err
		}
		for _, m := range []struct {
			name string
			val  float64
		}{
			{"submit_p50", r.Submit.P50MS},
			{"submit_p99", r.Submit.P99MS},
			{"poll_p50", r.Poll.P50MS},
			{"poll_p99", r.Poll.P99MS},
			{"e2e_p50", r.E2E.P50MS},
			{"e2e_p95", r.E2E.P95MS},
			{"e2e_p99", r.E2E.P99MS},
		} {
			if err := line(m.name, m.val); err != nil {
				return err
			}
		}
		if r.ThroughputJPS > 0 {
			if err := line("ns_per_done_job", 1e3/r.ThroughputJPS); err != nil {
				return err
			}
		}
	}
	return nil
}
