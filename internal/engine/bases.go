package engine

import (
	"sync"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// baseKey identifies the deadline-independent scheduler state a job
// needs: the graph (by identity — batch callers submit the same *Graph
// when they mean the same graph) and every Options field that feeds
// core.NewBase, at canonical defaults so a zero field and its explicit
// default share a base. The battery selection is keyed by its canonical
// spec bytes, exactly as the content-addressed cache hashes it.
type baseKey struct {
	graph               *taskgraph.Graph
	spec                string
	initialOrder        core.InitialWeight
	maxIterations       int
	factors             core.FactorSet
	windows             core.WindowPolicy
	dpfColumns          core.DPFColumnRule
	disableResequencing bool
	recordTrace         bool
	approx              float64
}

type baseEntry struct {
	once sync.Once
	base *core.SchedulerBase
	err  error
}

// baseCache deduplicates core.NewBase work across the jobs of one batch:
// deadline sweeps (many deadlines over one graph and option set) are the
// common batch shape, and everything but the deadline — battery model
// resolution, flat matrices, the Energy Vector, reachability bitsets,
// candidate pruning, lower-bound analysis — is identical across them.
// Construction runs inside the requesting worker under a per-key
// sync.Once, so distinct graphs still build in parallel while a sweep's
// jobs share one build.
type baseCache struct {
	mu sync.Mutex
	m  map[baseKey]*baseEntry
}

func newBaseCache() *baseCache { return &baseCache{m: make(map[baseKey]*baseEntry)} }

// newBase builds a group's base. Tests swap it, keyed on graph
// identity, to cost one graph's jobs with a hand-written battery model
// through core.NewBaseWithModel.
var newBase = core.NewBase

// get returns the shared SchedulerBase for (g, opt), building it at most
// once per batch.
func (c *baseCache) get(g *taskgraph.Graph, opt core.Options) (*core.SchedulerBase, error) {
	o := opt.Canonical()
	k := baseKey{
		graph:               g,
		spec:                string(opt.BatterySpec().AppendCanonical(nil)),
		initialOrder:        o.InitialOrder,
		maxIterations:       o.MaxIterations,
		factors:             o.Factors,
		windows:             o.Windows,
		dpfColumns:          o.DPFColumns,
		disableResequencing: o.DisableResequencing,
		recordTrace:         o.RecordTrace,
		approx:              o.Approx,
	}
	c.mu.Lock()
	ent := c.m[k]
	if ent == nil {
		ent = &baseEntry{}
		c.m[k] = ent
	}
	c.mu.Unlock()
	ent.once.Do(func() {
		ent.base, ent.err = newBase(g, opt)
	})
	return ent.base, ent.err
}
