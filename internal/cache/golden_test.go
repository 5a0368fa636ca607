package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/taskgraph"
	"repro/internal/wire"
)

// wireJob decodes one wire line and converts it the way every front end
// does, so the golden jobs exercise the same option plumbing as served
// requests.
func wireJob(t *testing.T, line string) engine.Job {
	t.Helper()
	wj, err := wire.DecodeJob([]byte(line))
	if err != nil {
		t.Fatalf("decode %s: %v", line, err)
	}
	job, err := wj.ToEngine()
	if err != nil {
		t.Fatalf("ToEngine %s: %v", line, err)
	}
	return job
}

// TestKeyGolden pins Key's hex output. The goldens are addresses of
// results already persisted by -cache-dir stores: a change here without
// a keyVersion bump would silently orphan (or, worse, misattribute)
// every stored entry.
func TestKeyGolden(t *testing.T) {
	calibrated := battery.Spec{Kind: battery.KindCalibrated, Observations: []battery.Observation{
		{Current: 100, Lifetime: 478}, {Current: 200, Lifetime: 228.9}}}
	specJob := func(spec battery.Spec) engine.Job {
		return engine.Job{Graph: taskgraph.G3(), Deadline: 230, Options: core.Options{Battery: &spec}}
	}
	cases := []struct {
		name string
		job  engine.Job
		want string
	}{
		{"default", engine.Job{Graph: taskgraph.G3(), Deadline: 230},
			"0edd47e9952ba48f1f23d97fdf7b775ffc6a396bdafd94d167d5d3d71add1957"},
		{"wire-beta", wireJob(t, `{"fixture":"g3","deadline":230,"beta":0.35}`),
			"b3a19aa0e41170f64a6853c909225236bee3332ec5726d87aeb9064759c21340"},
		{"wire-rakhmatov-spec", wireJob(t, `{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":0.35}}`),
			"b3a19aa0e41170f64a6853c909225236bee3332ec5726d87aeb9064759c21340"},
		{"rakhmatov-terms", specJob(battery.Spec{Kind: battery.KindRakhmatov, Beta: 0.5, Terms: 20}),
			"c5ea2c5ae782d5d30a5136bbe01c9a8522e5fe9d95f4f6e412b6d1ce844a28ae"},
		{"ideal", specJob(battery.Spec{Kind: battery.KindIdeal}),
			"e3ff73d31910d1d4782183c2e54dd7eecb0cc26c3bcb89a5b192256deb179681"},
		{"peukert", specJob(battery.Spec{Kind: battery.KindPeukert, Exponent: 1.2, RefCurrent: 100}),
			"d7a631df33155e2637f65fbc979d937feaee61772da2792c9f9e0b7ddf1a8922"},
		{"kibam", specJob(battery.Spec{Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}),
			"c24254292cc4f361b530200e7d986cdf4990392fdad30793eb306bdfc09f09b0"},
		{"calibrated", specJob(calibrated),
			"5c996902352f5aecb2922a6840ef10f9f59eb683f37f4416412ace2cee8d3fba"},
		{"approx", engine.Job{Graph: taskgraph.G3(), Deadline: 230, Options: core.Options{Approx: 0.5}},
			"14480463a8e7307a6ee83b0eb3de36a4c8e12817058a68429292bed9e1a56508"},
		{"multistart", engine.Job{Graph: taskgraph.G2(), Deadline: 75, Strategy: "multistart",
			MultiStart: core.MultiStartOptions{Restarts: 4, Seed: 7}},
			"5b18ef74f4b468313d39bc95de9652c6c65c7d39069a8be27f4c24246a2e1128"},
	}
	for _, c := range cases {
		got, ok := Key(c.job)
		if !ok {
			t.Fatalf("%s: job must be cacheable", c.name)
		}
		if got != c.want {
			t.Errorf("%s: key = %s, want %s", c.name, got, c.want)
		}
	}
}

// resultFingerprints maps each keyVersion to the SHA-256 of the results
// computed over fingerprintJobs. Changing what the engine computes for
// any of those jobs changes the hash; the test then fails until
// keyVersion is bumped (and a new entry recorded), so no stored result
// can outlive the algorithm that produced it.
var resultFingerprints = map[string]string{
	"battsched-cache-v3": "95894384316a1ca4be017bd1f7264b46b507a83e196f226de4252bbdf11dde0e",
}

// fingerprintJobs is the reference corpus: both paper graphs at every
// paper deadline, under every strategy family, costed under three
// battery kinds.
func fingerprintJobs() []engine.Job {
	specs := []*battery.Spec{
		nil,
		{Kind: battery.KindIdeal},
		{Kind: battery.KindKiBaM, Capacity: 1e6, WellFraction: 0.6, RateConstant: 0.05},
	}
	strategies := []string{
		engine.StrategyIterative, engine.StrategyMultiStart, engine.StrategyWithIdle,
		engine.StrategyRVDP, engine.StrategyAllFastest,
	}
	graphs := []struct {
		g         *taskgraph.Graph
		deadlines []float64
	}{
		{taskgraph.G2(), taskgraph.G2Deadlines},
		{taskgraph.G3(), taskgraph.G3Deadlines},
	}
	var jobs []engine.Job
	for _, gr := range graphs {
		for _, d := range gr.deadlines {
			for _, s := range strategies {
				for _, spec := range specs {
					jobs = append(jobs, engine.Job{
						Graph: gr.g, Deadline: d, Strategy: s,
						Options:    core.Options{Battery: spec},
						MultiStart: core.MultiStartOptions{Restarts: 4, Seed: 1},
					})
				}
			}
		}
	}
	return jobs
}

// fingerprint hashes the result-defining content of a batch in order:
// the float bits of cost, duration and energy, the iteration count, the
// task order and the assignment in ascending task-ID order.
func fingerprint(t *testing.T, results []engine.Result) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", i, r.Strategy, r.Err)
		}
		u64(math.Float64bits(r.Cost))
		u64(math.Float64bits(r.Duration))
		u64(math.Float64bits(r.Energy))
		u64(uint64(r.Iterations))
		u64(uint64(len(r.Schedule.Order)))
		for _, id := range r.Schedule.Order {
			u64(uint64(id))
		}
		ids := make([]int, 0, len(r.Schedule.Assignment))
		for id := range r.Schedule.Assignment {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			u64(uint64(id))
			u64(uint64(r.Schedule.Assignment[id]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestResultFingerprint fails when the engine's results over the
// reference corpus change without a keyVersion bump.
func TestResultFingerprint(t *testing.T) {
	got := fingerprint(t, engine.RunBatch(fingerprintJobs(), 2))
	want, ok := resultFingerprints[keyVersion]
	if !ok {
		t.Fatalf("no fingerprint recorded for %s; results hash to %s", keyVersion, got)
	}
	if got != want {
		t.Fatalf("results changed under %s: fingerprint %s, want %s — bump keyVersion and record the new hash",
			keyVersion, got, want)
	}
}
