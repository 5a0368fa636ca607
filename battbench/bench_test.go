package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	if !bytes.Equal(sweepBody(7, 3), sweepBody(7, 3)) {
		t.Error("cold-sweep body differs between two generations with one seed")
	}
	if bytes.Equal(sweepBody(7, 3), sweepBody(8, 3)) {
		t.Error("cold-sweep body is the same under two seeds")
	}
	h1, h2, h3 := newHotSet(7), newHotSet(7), newHotSet(8)
	for i := 0; i < 64; i++ {
		if h1.key(i) != h2.key(i) || !bytes.Equal(h1.keys[h1.key(i)], h2.keys[h2.key(i)]) {
			t.Fatalf("hot-fixture request %d differs between two generations with one seed", i)
		}
	}
	if bytes.Equal(bytes.Join(h1.keys, nil), bytes.Join(h3.keys, nil)) {
		t.Error("hot-fixture jobs are the same under two seeds")
	}
	a1, a2, a3 := newAsyncSet(7), newAsyncSet(7), newAsyncSet(8)
	if !bytes.Equal(a1.body(5), a2.body(5)) {
		t.Error("async-restart body differs between two generations with one seed")
	}
	if bytes.Equal(a1.body(5), a3.body(5)) {
		t.Error("async-restart body is the same under two seeds")
	}
}

func TestWorkloadShapes(t *testing.T) {
	h := newHotSet(1)
	distinct := map[string]bool{}
	for _, k := range h.keys {
		distinct[string(k)] = true
	}
	if len(distinct) != hotKeys {
		t.Errorf("hot-fixture has %d distinct jobs, want %d", len(distinct), hotKeys)
	}
	a := newAsyncSet(1)
	stored := 0
	for _, s := range a.stored {
		if s {
			stored++
		}
	}
	if stored != asyncStored || len(a.keys) != asyncStored+asyncUnseen {
		t.Errorf("async-restart stores %d of %d keys, want %d of %d", stored, len(a.keys), asyncStored, asyncStored+asyncUnseen)
	}
	if n := len(a.jobs); n != asyncPassBodies*asyncBodyJobs {
		t.Errorf("async-restart pass has %d jobs", n)
	}
	lines := splitLines(a.body(0))
	if len(lines) != asyncBodyJobs {
		t.Fatalf("async body has %d lines, want %d", len(lines), asyncBodyJobs)
	}
	for i, ln := range lines {
		j, err := wire.DecodeJob(ln)
		if err != nil {
			t.Fatalf("async line %d: %v", i, err)
		}
		if j.Priority != a.jobs[i].priority {
			t.Fatalf("async line %d has priority %d, want %d", i, j.Priority, a.jobs[i].priority)
		}
	}
}

// The spliced cold-sweep body must be exactly what json.Marshal makes
// of the same wire jobs.
func TestSweepBodyIsMarshaledJobs(t *testing.T) {
	jobs := sweepJobs(3, 11)
	var want []byte
	for _, j := range jobs {
		spec := j.Graph.ToSpec("")
		b, err := json.Marshal(wire.Job{Graph: &spec, Deadline: j.Deadline})
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	if got := sweepBody(3, 11); !bytes.Equal(got, want) {
		t.Fatal("spliced cold-sweep body differs from the marshaled jobs")
	}
}

func TestCheckerFlagsOneCorruptByte(t *testing.T) {
	h := newHotSet(1)
	ref, err := runReference(h.ref[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	line := referenceLine(0, ref[0])
	expect := func(key, idx int) [32]byte { return lineOutcome(0, 0, line).digest }
	if v := check([]outcome{lineOutcome(0, 0, line)}, expect); v.failed() != 0 {
		t.Fatalf("checker failed the reference line itself: %s", v)
	}
	for _, pos := range []int{0, len(line) / 2, len(line) - 2} {
		bad := append([]byte(nil), line...)
		bad[pos] ^= 0x01
		v := check([]outcome{lineOutcome(0, 0, bad)}, expect)
		if v.failed() != 1 || v.kinds[mismatched] != 1 {
			t.Errorf("byte %d flipped: checker says %s, want one mismatched line", pos, v)
		}
	}
}

func TestSelfTimesAndStageSums(t *testing.T) {
	spans := []span{
		{Name: "cache.lookup", Req: 1, Parent: -1, Start: 0, End: 100},
		{Name: "engine.run", Req: 1, Parent: 0, Start: 10, End: 70},
		{Name: "wire.encode", Req: 1, Parent: -1, Start: 100, End: 110},
		{Name: "wire.decode", Req: 2, Parent: -1, Start: 0, End: 5},
	}
	self := selfTimes(spans)
	if want := []int64{40, 60, 10, 5}; !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	sums := stageSums(spans, self)
	if sums[1] != 110 || sums[2] != 5 {
		t.Errorf("stage sums %v, want 110 and 5", sums)
	}
}

// The names the program reports must be the ones BENCHMARK.json lists,
// and every name must match the benchmark's name pattern.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(slices.Sorted(slices.Values(listed)), slices.Sorted(slices.Values(workloadNames))) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", listed, workloadNames)
	}

	e2e := &result{}
	now := time.Now()
	l := &load{samples: []sample{{at: now, d: time.Millisecond, jobs: 1}}, jobs: 1, segs: []segment{{now, time.Second}}}
	e2eMetrics(e2e, l, []time.Duration{time.Second}, []float64{1}, 1, true)
	layers := &result{}
	p := &replayPair{untraced: l, traced: l, ly: newLayers(newTracer(), nil)}
	if err := layerMetrics(layers, p, live{l: l}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind   string
		listed []struct{ Name, Unit string }
		got    []metric
	}{{"end_to_end", spec.EndToEnd, e2e.metrics}, {"per_layer", spec.PerLayer, layers.metrics}} {
		want := map[string]string{}
		for _, m := range c.listed {
			want[m.Name] = m.Unit
		}
		var got []string
		for _, m := range c.got {
			got = append(got, m.name)
			if !name.MatchString(m.name) {
				t.Errorf("%s metric name %q does not match %s", c.kind, m.name, name)
			}
			if u, ok := want[m.name]; !ok || u != m.unit {
				t.Errorf("%s metric %s %s is not listed in BENCHMARK.json with that unit (listed: %q)", c.kind, m.name, m.unit, u)
			}
		}
		if len(got) != len(c.listed) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", c.kind, len(got), len(c.listed))
		}
	}
	for _, w := range workloadNames {
		if !name.MatchString(w) {
			t.Errorf("workload name %q does not match %s", w, name)
		}
	}
}

// A daemon that retains no finished job truncates its job streams; the
// checker must count every line that never arrived as failed.
func TestCheckerCountsTruncatedStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts battschedd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "battschedd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/battschedd").CombinedOutput(); err != nil {
		t.Fatalf("building battschedd: %v\n%s", err, out)
	}
	e := &env{daemon: bin, work: dir, seed: 1, clients: min(2, runtime.NumCPU()), workers: runtime.GOMAXPROCS(0)}
	v, received, err := truncatedStreams(e)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d lines received; %s", received, v)
	if v.attempted != selfTestBodies*asyncBodyJobs {
		t.Errorf("attempted %d jobs, want %d", v.attempted, selfTestBodies*asyncBodyJobs)
	}
	if received == v.attempted {
		t.Skip("no stream was truncated on this run; nothing to check")
	}
	if v.failed() < v.attempted-received || v.kinds[missing] == 0 {
		t.Errorf("checker counted %d failed (%d missing) with %d of %d lines received", v.failed(), v.kinds[missing], received, v.attempted)
	}
}

// The reference line of an engine result is what FromEngine plus JSON
// gives, newline-terminated, as the handlers write it.
func TestReferenceLineFraming(t *testing.T) {
	ref, err := runReference(newHotSet(1).ref[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	ln := referenceLine(3, ref[0])
	if !bytes.HasPrefix(ln, []byte(`{"index":3,`)) || ln[len(ln)-1] != '\n' || bytes.Count(ln, []byte("\n")) != 1 {
		t.Errorf("reference line %q", ln)
	}
	if idx, ok := indexOf(ln); !ok || idx != 3 {
		t.Errorf("indexOf = %d, %v", idx, ok)
	}
	if c := costOf(ln); c != ref[0].Cost {
		t.Errorf("costOf = %v, want %v", c, ref[0].Cost)
	}
}
