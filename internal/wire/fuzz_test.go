package wire

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// FuzzDecodeJobs hammers the NDJSON batch decoder with arbitrary bytes.
// Invariants under fuzz:
//
//   - no panic, whatever the input;
//   - the three outputs stay parallel (one slot per non-blank line);
//   - a slot without an error holds a fully resolved job — non-nil
//     graph, positive finite deadline, canonical bounds respected —
//     because front ends hand exactly these to the engine unchecked;
//   - a slot with an error holds the zero placeholder job (nil graph),
//     which the engine rejects instantly;
//   - a slot without an error never carries an invalid battery spec —
//     negative/out-of-domain parameters, foreign parameters and unknown
//     kinds are all structured decode errors, never panics (NaN/Inf
//     literals cannot even parse as JSON; overflowing numbers like
//     1e999 fail at decode time).
//
// The seed corpus is real traffic: fixture jobs for every strategy and
// battery-spec kind, an inline graph built from testdata/g2.json, and
// the malformed shapes the decode tests pin down.
func FuzzDecodeJobs(f *testing.F) {
	f.Add([]byte(`{"fixture":"g3","deadline":230}`))
	f.Add([]byte(`{"name":"a","fixture":"g2","deadline":75,"strategy":"rv-dp"}` + "\n" +
		`{"name":"b","fixture":"g3","deadline":230,"strategy":"multistart","restarts":4,"seed":7}` + "\n" +
		"\n" +
		`{"name":"c","fixture":"g3","deadline":230,"strategy":"withidle","timeout_ms":1000}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"fixture":"g3","deadline":-1}` + "\n" + `{"deadline":230}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230}{"fixture":"g2","deadline":75}`))
	f.Add([]byte(`{"graph":{"tasks":[{"id":1,"points":[{"current":10,"time":1}]}]},"deadline":5}`))
	// Battery specs: every kind valid once, plus the rejection shapes
	// (unknown kind, negative/overflowing/foreign parameters, beta
	// conflict, malformed observations).
	f.Add([]byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":0.35,"terms":12}}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"ideal"}}` + "\n" +
		`{"fixture":"g3","deadline":230,"battery":{"kind":"peukert","exponent":1.2,"ref_current":100}}` + "\n" +
		`{"fixture":"g2","deadline":75,"battery":{"kind":"kibam","capacity":40000,"well_fraction":0.5,"rate_constant":0.1}}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"calibrated","observations":[{"current":100,"lifetime":478},{"current":200,"lifetime":228.9}]}}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"fluxcap"}}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":-1}}` + "\n" +
		`{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":1e999}}` + "\n" +
		`{"fixture":"g3","deadline":230,"battery":{"kind":"kibam","capacity":100,"well_fraction":2,"rate_constant":-0.1}}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"ideal","beta":0.3}}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230,"beta":0.3,"battery":{"kind":"ideal"}}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"calibrated","observations":[{"current":100,"lifetime":478}]}}`))
	// Async queue fields: valid priority/ttl_ms combinations, both
	// bounds, and the rejection shapes (negative, over-limit,
	// overflow-bait values the int64→Duration conversion must never
	// see).
	f.Add([]byte(`{"fixture":"g3","deadline":230,"priority":9,"ttl_ms":5000}` + "\n" +
		`{"fixture":"g2","deadline":75,"priority":1}` + "\n" +
		`{"fixture":"g3","deadline":230,"ttl_ms":86400000}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230,"priority":-1}` + "\n" +
		`{"fixture":"g3","deadline":230,"priority":10}` + "\n" +
		`{"fixture":"g3","deadline":230,"priority":2147483647}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230,"ttl_ms":-5}` + "\n" +
		`{"fixture":"g3","deadline":230,"ttl_ms":86400001}` + "\n" +
		`{"fixture":"g3","deadline":230,"ttl_ms":9223372036854775807}`))
	f.Add([]byte(`{"fixture":"g3","deadline":230,"priority":3,"ttl_ms":1000,"timeout_ms":500,"strategy":"multistart","restarts":2}`))
	// An inline-graph job line assembled from the shared fixture file.
	if spec, err := os.ReadFile(filepath.Join("..", "..", "testdata", "g2.json")); err == nil {
		var compact bytes.Buffer
		if json.Compact(&compact, spec) == nil {
			f.Add([]byte(`{"graph":` + compact.String() + `,"deadline":75}`))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, names, errs, err := DecodeJobs(bytes.NewReader(data))
		if err != nil {
			if jobs != nil || names != nil || errs != nil {
				t.Fatalf("stream-level failure must return nil slices, got %d/%d/%d", len(jobs), len(names), len(errs))
			}
			return
		}
		if len(jobs) != len(names) || len(jobs) != len(errs) {
			t.Fatalf("outputs not parallel: %d jobs, %d names, %d errs", len(jobs), len(names), len(errs))
		}
		for i := range jobs {
			if errs[i] != nil {
				if jobs[i].Graph != nil {
					t.Fatalf("line %d: failed decode kept a graph", i)
				}
				continue
			}
			j := jobs[i]
			if j.Graph == nil {
				t.Fatalf("line %d: clean decode without a graph", i)
			}
			if !finite(j.Deadline) || j.Deadline <= 0 {
				t.Fatalf("line %d: clean decode with deadline %g", i, j.Deadline)
			}
			if j.MultiStart.Restarts < 0 || j.MultiStart.Restarts > MaxRestarts {
				t.Fatalf("line %d: multistart knobs out of bounds: %+v", i, j.MultiStart)
			}
			if j.Timeout < 0 {
				t.Fatalf("line %d: negative timeout %v", i, j.Timeout)
			}
			if j.Options.Battery != nil {
				if verr := j.Options.Battery.Validate(); verr != nil {
					t.Fatalf("line %d: clean decode carries an invalid battery spec: %v", i, verr)
				}
			}
		}
	})
}

// FuzzDecodeJobsShared is the differential check of DecodeJobsFull's
// shared-graph path. The body repeats every non-blank input line, the
// copy with another deadline or name, so consecutive lines carry the
// same graph bytes and the copies take the shared path. Slot by slot,
// DecodeJobsFull must return exactly what DecodeJob followed by
// ToEngine returns on that line alone: the same wire.Job, the same
// engine fields, a graph with the same spec and the same error text.
func FuzzDecodeJobsShared(f *testing.F) {
	// A cold-sweep-shaped body, at n=14 and 4 deadlines to keep each
	// execution fast.
	f.Add(sweepBody(3, 14, 4))
	const b = `{"tasks":[{"id":1,"points":[{"current":10,"time":1}]},{"id":2,"points":[{"current":20,"time":2}],"parents":[1]}]}`
	const a = `{"tasks":[{"id":1,"name":"x","points":[{"current":10,"time":1}]},{"id":2,"points":[{"current":20,"time":2}],"parents":[1]}]}`
	// Two graphs of one length in turn: each copy must build its own.
	const c = `{"tasks":[{"id":1,"points":[{"current":10,"time":1}]},{"id":2,"points":[{"current":30,"time":2}],"parents":[1]}]}`
	f.Add([]byte(`{"graph":` + b + `,"deadline":5}` + "\n" + `{"graph":` + c + `,"deadline":5}` + "\n" + `{"graph":` + b + `,"deadline":6}`))
	// A repeated key merges into the *Spec (task 1 keeps a's name) but
	// its raw bytes are b's alone. Even-numbered lines get the deadline
	// variant, which keeps the graph inside the shared prefix.
	f.Add([]byte(`{"graph":` + b + `,"deadline":5}` + "\n" + `{"fixture":"g2","deadline":75}` + "\n" +
		`{"graph":` + a + `,"graph":` + b + `,"deadline":5}`))
	f.Add([]byte(`{"graph":` + b + `,"deadline":5}` + "\n" + `{"Graph":` + b + `,"deadline":7}` + "\n" + `{"GRAPH":` + b + `,"graph":` + b + `,"deadline":9}`))
	f.Add([]byte(`{"graph":` + b + `,"deadline":5}` + "\n" + `{"graph":null,"fixture":"g2","deadline":75}` + "\n" +
		`{"graph":null,"graph":` + b + `,"fixture":"g2","deadline":75}` + "\n" + `{"graph":null,"deadline":5}`))
	f.Add([]byte(`{"graph":` + b + `,"deadline":5}` + "\n" + `{"graph":` + b + `,"deadline":0}` + "\n" +
		`{"graph":` + b + `,"deadline":5,"strategy":"nonsense"}` + "\n" + `{"graph":` + b + `,"fixture":"g2","deadline":5}`))
	f.Add([]byte(`{"graph":` + b + `,"deadline":5}` + "\n" + `{"graph":` + b + `,"deadline":5}{"deadline":6}` + "\n" +
		`{"graph":` + b + `,"deadline":5}]` + "\n" + `{"graph":` + b + `,"deadline":5} x`))
	f.Add([]byte(`{"name":"n","graph":{"tasks":[{"id":1,"points":[{"current":-10,"time":1}]}]},"deadline":5}` + "\n" +
		`{"name":"n","graph":{"tasks":[{"id":1,"points":[{"current":10,"time":1}]}],"extra":1},"deadline":5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var lines [][]byte
		for i, l := range bytes.Split(data, []byte("\n")) {
			if l = bytes.TrimSpace(l); len(l) > 0 {
				lines = append(lines, l, lineVariant(l, i))
			}
		}
		body := bytes.Join(lines, []byte("\n"))
		wjobs, jobs, errs, err := DecodeJobsFull(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("stream error on an in-memory body: %v", err)
		}
		if len(wjobs) != len(lines) {
			t.Fatalf("%d slots for %d lines", len(wjobs), len(lines))
		}
		for i, line := range lines {
			assertSameAsPerLine(t, i, line, wjobs[i], jobs[i], errs[i])
		}
	})
}

// lineVariant returns a copy of line with a digit prefixed to its
// deadline (even i) or a letter to its name (odd i), whichever key it
// has; an unchanged copy when it has neither.
func lineVariant(line []byte, i int) []byte {
	keys := []string{`"deadline":`, `"name":"`}
	if i%2 == 1 {
		keys[0], keys[1] = keys[1], keys[0]
	}
	for _, key := range keys {
		if k := bytes.Index(line, []byte(key)); k >= 0 {
			k += len(key)
			return append(append(append([]byte(nil), line[:k]...), '1'), line[k:]...)
		}
	}
	return append([]byte(nil), line...)
}

// assertSameAsPerLine fails unless a DecodeJobsFull slot equals the
// result of decoding its line on its own.
func assertSameAsPerLine(t *testing.T, i int, line []byte, wjob Job, ejob engine.Job, err error) {
	t.Helper()
	want, werr := DecodeJob(line)
	var wantE engine.Job
	if werr == nil {
		wantE, werr = want.ToEngine()
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("line %d %q: error %v, per-line %v", i, line, err, werr)
	}
	if !reflect.DeepEqual(wjob, want) {
		t.Fatalf("line %d %q: wire job %+v, per-line %+v", i, line, wjob, want)
	}
	g, wantG := ejob.Graph, wantE.Graph
	ejob.Graph, wantE.Graph = nil, nil
	if !reflect.DeepEqual(ejob, wantE) {
		t.Fatalf("line %d %q: engine job %+v, per-line %+v", i, line, ejob, wantE)
	}
	if (g == nil) != (wantG == nil) || g != nil && !reflect.DeepEqual(g.ToSpec(""), wantG.ToSpec("")) {
		t.Fatalf("line %d %q: graph differs from the per-line build", i, line)
	}
}
