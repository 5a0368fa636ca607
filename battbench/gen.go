package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/dvs"
	"repro/internal/engine"
	"repro/internal/taskgraph"
	"repro/internal/wire"
)

// Workload names, as given to --workload.
const (
	coldSweep    = "cold-sweep"
	hotFixture   = "hot-fixture"
	asyncRestart = "async-restart"
)

var workloadNames = []string{coldSweep, hotFixture, asyncRestart}

// Workload shape. The numbers are the ones the workloads are documented
// with in README.md; changing one changes what the benchmark measures.
const (
	sweepTasks     = 80 // fork-join size of a cold-sweep graph
	sweepDeadlines = 8  // deadlines per cold-sweep request
	sweepSlackLo   = 0.3
	sweepSlackHi   = 0.86

	hotKeys = 512 // distinct hot-fixture jobs; fits the daemon's 1024-entry LRU

	asyncStored     = 8192 // results pre-populated in the disk store
	asyncUnseen     = 1024 // keys the store does not hold
	asyncInlineEach = 8    // every 8th key is an inline graph
	asyncTasks      = 40   // fork-join size of an inline async graph
	asyncBodyJobs   = 64   // jobs per POST /v1/jobs/stream body
	asyncPassBodies = 256  // bodies per pass: 16384 jobs
)

// Stream identifiers keep the generators of different inputs independent:
// adding a draw to one stream never shifts another.
const (
	streamSweepGraph uint64 = iota + 1
	streamHotKeys
	streamHotSeq
	streamAsyncKeys
	streamAsyncGraph
	streamAsyncSeq
)

// rngFor returns the deterministic generator for item i of a stream.
func rngFor(seed int64, stream, i uint64) *rand.Rand {
	h := fnv.New64a()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], stream)
	binary.LittleEndian.PutUint64(b[16:], i)
	h.Write(b[:])
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// forkJoin draws the benchmark's fork-join graph shape (the paper's G3
// style, as in BenchmarkScalingTasks): four branches and a five-task
// tail, five design points per task from the G3 scaling factors.
func forkJoin(rng *rand.Rand, n int) *taskgraph.Graph {
	recipe := dvs.Recipe{Factors: dvs.G3Factors, Rule: dvs.TimeReversedLinear, Round: 1}
	points, err := recipe.PointsFunc(dvs.RandomRefs(rng, n, 300, 900, 2, 8))
	if err != nil {
		panic(err) // the recipe and ranges are constants
	}
	g, err := taskgraph.ForkJoin(4, (n-6)/4, 5, points)
	if err != nil {
		panic(err)
	}
	return g
}

// slackDeadline places a deadline at share s of the graph's feasible
// range, rounded to 0.1 minutes (as the synthetic experiments do).
func slackDeadline(g *taskgraph.Graph, s float64) float64 {
	lo, hi := g.MinTotalTime(), g.MaxTotalTime()
	d := math.Round((lo+s*(hi-lo))*10) / 10
	if d < lo {
		d = math.Ceil(lo*10) / 10
	}
	return d
}

// line encodes one job as an NDJSON line (no trailing newline).
func line(j wire.Job) []byte {
	b, err := json.Marshal(j)
	if err != nil {
		panic(err) // wire.Job has no unencodable fields
	}
	return b
}

// sweepJobs is cold-sweep request i as engine jobs: one distinct n=80
// graph at eight deadlines spanning the slack range.
func sweepJobs(seed int64, i int) []engine.Job {
	g := forkJoin(rngFor(seed, streamSweepGraph, uint64(i)), sweepTasks)
	jobs := make([]engine.Job, sweepDeadlines)
	for k := range jobs {
		s := sweepSlackLo + float64(k)*(sweepSlackHi-sweepSlackLo)/(sweepDeadlines-1)
		jobs[k] = engine.Job{Graph: g, Deadline: slackDeadline(g, s)}
	}
	return jobs
}

// sweepBody is cold-sweep request i as one POST /v1/batch body. The
// graph is encoded once and spliced into each line; the bytes equal
// json.Marshal of the wire.Job (graph precedes deadline in the schema).
func sweepBody(seed int64, i int) []byte {
	jobs := sweepJobs(seed, i)
	graph, err := json.Marshal(jobs[0].Graph.ToSpec(""))
	if err != nil {
		panic(err)
	}
	var body []byte
	for _, j := range jobs {
		tail := line(wire.Job{Deadline: j.Deadline}) // {"deadline":…}
		body = append(body, `{"graph":`...)
		body = append(body, graph...)
		body = append(body, ',')
		body = append(body, tail[1:]...)
		body = append(body, '\n')
	}
	return body
}

// fixtureDeadlines draws n distinct deadlines for a fixture inside its
// feasible range (slack 0.05–1), one uniformly placed in each of n
// equal strata on a 0.001-minute grid: the seed moves every deadline,
// while the set's spread over the range, and so its mean cost, hardly
// changes from seed to seed.
func fixtureDeadlines(rng *rand.Rand, fixture string, n int) []float64 {
	g, _, err := taskgraph.Fixture(fixture)
	if err != nil {
		panic(err)
	}
	lo, hi := g.MinTotalTime(), g.MaxTotalTime()
	lo += 0.05 * (hi - lo)
	steps := int((hi - lo) * 1000)
	if steps < 2*n {
		panic(fmt.Sprintf("fixture %s has room for %d deadlines, need %d", fixture, steps/2, n))
	}
	out := make([]float64, n)
	for i := range out {
		from, to := i*steps/n, (i+1)*steps/n
		k := from + rng.Intn(to-from)
		out[i] = math.Round((lo+float64(k)/1000)*1000) / 1000
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fixtureJobs returns n distinct fixture jobs, alternating g2 and g3.
func fixtureJobs(rng *rand.Rand, n int) []wire.Job {
	g2 := fixtureDeadlines(rng, "g2", (n+1)/2)
	g3 := fixtureDeadlines(rng, "g3", n/2)
	jobs := make([]wire.Job, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			jobs = append(jobs, wire.Job{Fixture: "g2", Deadline: g2[i/2]})
		} else {
			jobs = append(jobs, wire.Job{Fixture: "g3", Deadline: g3[i/2]})
		}
	}
	return jobs
}

// hotSet is the hot-fixture workload: 512 distinct fixture jobs, each
// request one of them drawn uniformly.
type hotSet struct {
	seed int64
	keys [][]byte     // POST /v1/schedule bodies, one per distinct job
	ref  []engine.Job // the same jobs, built without the wire layer
}

func newHotSet(seed int64) *hotSet {
	jobs := fixtureJobs(rngFor(seed, streamHotKeys, 0), hotKeys)
	h := &hotSet{seed: seed, keys: make([][]byte, len(jobs)), ref: make([]engine.Job, len(jobs))}
	for i, j := range jobs {
		h.keys[i] = line(j)
		h.ref[i] = fixtureJob(j)
	}
	return h
}

// fixtureJob is the engine job a fixture wire job stands for.
func fixtureJob(j wire.Job) engine.Job {
	g, _, err := taskgraph.Fixture(j.Fixture)
	if err != nil {
		panic(err)
	}
	return engine.Job{Graph: g, Deadline: j.Deadline}
}

// key is the distinct job request i asks for.
func (h *hotSet) key(i int) int {
	return rngFor(h.seed, streamHotSeq, uint64(i)).Intn(len(h.keys))
}

// asyncSet is the async-restart workload: a universe of 9216 keys of
// which the first asyncStored (in a seeded order) are pre-populated in
// the daemon's disk store, and a fixed pass of 16384 jobs that picks
// uniformly over the whole universe with priorities 0:7,5:2,9:1.
type asyncSet struct {
	keys   [][]byte     // one job line per key, no priority
	ref    []engine.Job // the same jobs, built without the wire layer
	stored []bool       // whether key k is in the pre-populated store
	jobs   []asyncJob
}

type asyncJob struct {
	key      int
	priority int
}

func newAsyncSet(seed int64) *asyncSet {
	n := asyncStored + asyncUnseen
	inline := n / asyncInlineEach
	fixtures := fixtureJobs(rngFor(seed, streamAsyncKeys, 0), n-inline)
	a := &asyncSet{keys: make([][]byte, n), ref: make([]engine.Job, n), stored: make([]bool, n)}
	for k, fi := 0, 0; k < n; k++ {
		if k%asyncInlineEach == asyncInlineEach-1 {
			rng := rngFor(seed, streamAsyncGraph, uint64(k))
			g := forkJoin(rng, asyncTasks)
			spec := g.ToSpec("")
			d := slackDeadline(g, sweepSlackLo+rng.Float64()*(sweepSlackHi-sweepSlackLo))
			a.keys[k] = line(wire.Job{Graph: &spec, Deadline: d})
			a.ref[k] = engine.Job{Graph: g, Deadline: d}
			continue
		}
		a.keys[k] = line(fixtures[fi])
		a.ref[k] = fixtureJob(fixtures[fi])
		fi++
	}
	for i, k := range rngFor(seed, streamAsyncKeys, 1).Perm(n) {
		a.stored[k] = i < asyncStored
	}
	seq := rngFor(seed, streamAsyncSeq, 0)
	a.jobs = make([]asyncJob, asyncPassBodies*asyncBodyJobs)
	for i := range a.jobs {
		a.jobs[i] = asyncJob{key: seq.Intn(n), priority: asyncPriority(seq.Intn(10))}
	}
	return a
}

// asyncPriority maps a uniform draw in [0, 10) onto the 0:7,5:2,9:1 mix.
func asyncPriority(d int) int {
	switch {
	case d < 7:
		return 0
	case d < 9:
		return 5
	default:
		return 9
	}
}

// body is the NDJSON body of pass body b: 64 jobs with their priorities.
func (a *asyncSet) body(b int) []byte {
	var out []byte
	for _, j := range a.jobs[b*asyncBodyJobs : (b+1)*asyncBodyJobs] {
		out = append(out, withPriority(a.keys[j.key], j.priority)...)
		out = append(out, '\n')
	}
	return out
}

// withPriority adds a "priority" field to an encoded job line; priority
// is result-neutral, so the job keeps its cache key.
func withPriority(line []byte, p int) []byte {
	if p == 0 {
		return line
	}
	out := make([]byte, 0, len(line)+16)
	out = append(out, line[:len(line)-1]...)
	out = append(out, fmt.Sprintf(`,"priority":%d}`, p)...)
	return out
}
