package engine

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// encodeBatch serializes a batch result the way cmd/battbatch does, so
// byte equality here is byte equality on the wire.
func encodeBatch(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, r := range results {
		line := map[string]any{
			"index":    i,
			"name":     r.Name,
			"strategy": r.Strategy,
		}
		if r.Err != nil {
			line["error"] = r.Err.Error()
		} else {
			line["cost"] = r.Cost
			line["duration"] = r.Duration
			line["energy"] = r.Energy
			line["order"] = r.Schedule.Order
			line["assignment"] = r.Schedule.Assignment
		}
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestBatchDeterministic: the same batch must serialize byte-identically
// across repeated runs and across worker counts, multi-start jobs
// included. Run under -race this also proves the pool is race-free.
func TestBatchDeterministic(t *testing.T) {
	var jobs []Job
	for _, strategy := range []string{StrategyIterative, StrategyMultiStart, StrategyWithIdle, StrategyRVDP} {
		for _, d := range taskgraph.G2Deadlines {
			jobs = append(jobs, Job{Name: "g2", Graph: taskgraph.G2(), Deadline: d, Strategy: strategy,
				MultiStart: core.MultiStartOptions{Restarts: 5, Seed: 3}})
		}
		for _, d := range taskgraph.G3Deadlines {
			jobs = append(jobs, Job{Name: "g3", Graph: taskgraph.G3(), Deadline: d, Strategy: strategy,
				MultiStart: core.MultiStartOptions{Restarts: 5, Seed: 3}})
		}
	}
	// Include a failing job: its error text must be stable too.
	jobs = append(jobs, Job{Name: "bad", Graph: taskgraph.G3(), Deadline: 1})

	ref := encodeBatch(t, RunBatch(jobs, 1))
	for _, workers := range []int{1, 2, 4, 16} {
		for rep := 0; rep < 2; rep++ {
			got := encodeBatch(t, RunBatch(jobs, workers))
			if !bytes.Equal(got, ref) {
				t.Fatalf("workers=%d rep=%d: batch output differs from sequential reference\nref: %s\ngot: %s",
					workers, rep, ref, got)
			}
		}
	}
}
