package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"sort"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/taskgraph"
)

// keyVersion namespaces the hash so a future change to the canonical
// encoding cannot collide with results stored under the old one.
// v2: the battery model is hashed as a canonical battery.Spec encoding
// instead of raw Beta/SeriesTerms fields, making every declarative
// model kind (ideal/peukert/kibam/calibrated) cacheable.
// v3: Options.Approx joins the hash — the approximation mode changes
// which candidates the search evaluates, so an approximate result must
// never answer an exact request (or vice versa).
const keyVersion = "battsched-cache-v3"

// Key returns the canonical content hash of a job — the cache address of
// its result — and whether the job is cacheable at all.
//
// The key covers everything that determines the result: the graph
// content (tasks in ID order with their design points and sorted parent
// sets), the deadline, the canonical strategy name, the canonical
// battery-spec bytes (see battery.Spec.AppendCanonical), every other
// result-affecting Options field, and (for the multistart strategy) the
// restart count and seed. Fields are hashed at their resolved defaults
// (core.Options.Canonical, battery.Spec.Canonical, core.DefaultRestarts),
// so a request spelling out a default and one leaving it zero share an
// entry — including {"beta":0.35} and the equivalent
// {"battery":{"kind":"rakhmatov","beta":0.35}}, which canonicalize to
// the same spec.
//
// Deliberately excluded because they are result-neutral: Job.Name (a
// label), Options.RecordTrace (the trace never reaches an
// engine.Result), MultiStart for non-multistart strategies, and
// Job.Timeout (a completed result is identical under any timeout, and a
// computation the timeout aborts is never stored — see
// Cache.DoContext). Excluding them means a request answers from cache
// however the caller tuned its deadline budget.
//
// Not cacheable (ok = false): a nil graph, an unknown strategy or an
// invalid battery spec (the engine's per-job error is cheaper than
// hashing).
//
// Key derivation is the whole cost of a cache hit, so it hashes the
// graph directly (no Spec marshaling) through a reused buffer.
//
// The battlint:canonical exclusions below are the result-neutral fields
// listed above, plus Options.Battery, which IS hashed — as the canonical
// spec bytes from Options.BatterySpec (a core method, outside the
// analyzer's same-package view) and k.spec.
//
//battlint:canonical engine.Job -Name -Timeout
//battlint:canonical core.Options -Battery -RecordTrace
//battlint:canonical core.MultiStartOptions
func Key(job engine.Job) (key string, ok bool) {
	if job.Graph == nil {
		return "", false
	}
	spec := job.Options.BatterySpec()
	if spec.Validate() != nil {
		return "", false
	}
	strategy, err := engine.CanonicalStrategy(job.Strategy)
	if err != nil {
		return "", false
	}
	k := keyHasher{h: sha256.New()}
	k.str(keyVersion)
	k.str(strategy)
	k.f64(job.Deadline)

	// Hash the resolved defaults, not the raw zero values, so a zero
	// field and its explicit default ({"strategy":"multistart"} vs
	// "restarts":8, no battery vs the default spec) land on the same
	// entry.
	k.spec(spec)
	o := job.Options.Canonical()
	k.ints(int(o.InitialOrder), o.MaxIterations,
		int(o.Factors), int(o.Windows), int(o.DPFColumns), boolBit(o.DisableResequencing))
	k.f64(o.Approx)

	if strategy == engine.StrategyMultiStart {
		restarts := job.MultiStart.Restarts
		if restarts <= 0 {
			restarts = core.DefaultRestarts
		}
		k.ints(restarts)
		k.i64(job.MultiStart.Seed)
	}

	k.graph(job.Graph)
	return hex.EncodeToString(k.h.Sum(nil)), true
}

// keyHasher wraps the hash with a reused scratch buffer so the hot
// fixed-width writes do not allocate.
type keyHasher struct {
	h   hash.Hash
	buf [8]byte
}

// specStackBytes fits every fixed-parameter spec encoding (kind + three
// float64s); only calibrated specs with long observation lists spill to
// the heap.
const specStackBytes = 64

// spec hashes the battery spec's canonical bytes, length-prefixed like
// every variable-width field.
func (k *keyHasher) spec(s battery.Spec) {
	var stack [specStackBytes]byte
	enc := s.AppendCanonical(stack[:0])
	k.i64(int64(len(enc)))
	k.h.Write(enc)
}

// str writes s length-prefixed so adjacent fields cannot melt into each
// other.
func (k *keyHasher) str(s string) {
	k.i64(int64(len(s)))
	io.WriteString(k.h, s)
}

// f64 writes the exact bit pattern (distinguishes -0/+0 and every NaN
// payload; exactness matters more than normalization here).
func (k *keyHasher) f64(v float64) {
	binary.LittleEndian.PutUint64(k.buf[:], math.Float64bits(v))
	k.h.Write(k.buf[:])
}

func (k *keyHasher) i64(v int64) {
	binary.LittleEndian.PutUint64(k.buf[:], uint64(v))
	k.h.Write(k.buf[:])
}

func (k *keyHasher) ints(vs ...int) {
	for _, v := range vs {
		k.i64(int64(v))
	}
}

// graph hashes the graph content canonically: tasks in ascending ID
// order (whatever order they were added in), each with its name, its
// validated ascending-time design points and its sorted parent IDs.
func (k *keyHasher) graph(g *taskgraph.Graph) {
	n := g.N()
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		ids[i] = g.IDAt(i)
	}
	sort.Ints(ids)
	k.ints(n)
	for _, id := range ids {
		t := g.Task(id)
		k.ints(id)
		k.str(t.Name)
		k.ints(len(t.Points))
		for _, p := range t.Points {
			k.f64(p.Current)
			k.f64(p.Time)
			k.f64(p.Voltage)
			k.str(p.Name)
		}
		parents := g.Parents(id)
		sort.Ints(parents)
		k.ints(len(parents))
		k.ints(parents...)
	}
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
