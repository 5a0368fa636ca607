package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/wire"
)

// verdict tallies every job a run attempted by how its line turned out.
type verdict struct {
	attempted int
	kinds     [len(failNames)]int
}

func (v verdict) failed() int { return v.attempted - v.kinds[ok] }

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	for i := range v.kinds {
		v.kinds[i] += o.kinds[i]
	}
}

func (v verdict) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempted=%d", v.attempted)
	for i, n := range v.kinds {
		fmt.Fprintf(&b, " %s=%d", failNames[i], n)
	}
	return b.String()
}

// referenceLine encodes a reference result exactly as the daemon's
// handlers do: a JSON-encoded wire.Result and a newline.
func referenceLine(idx int, res engine.Result) []byte {
	b, err := json.Marshal(wire.FromEngine(idx, res))
	if err != nil {
		panic(err) // wire.Result holds only encodable fields
	}
	return append(b, '\n')
}

// check compares every served line with the digest of the bytes the
// reference gives for the same job at the same position, marking
// differing lines mismatched. expect is called once per distinct
// (key, idx).
func check(outs []outcome, expect func(key, idx int) [sha256.Size]byte) verdict {
	want := make(map[[2]int][sha256.Size]byte)
	var v verdict
	for i := range outs {
		o := &outs[i]
		v.attempted++
		if o.fail == ok {
			k := [2]int{o.key, o.idx}
			d, seen := want[k]
			if !seen {
				d = expect(o.key, o.idx)
				want[k] = d
			}
			if o.digest != d {
				o.fail = mismatched
			}
		}
		v.kinds[o.fail]++
	}
	return v
}

// sigmaMean is the mean cost over the distinct jobs of the workload's
// fixed sigma set, summed in key order so it repeats to the last bit.
func sigmaMean(outs []outcome) float64 {
	cost := make(map[int]float64)
	for _, o := range outs {
		if o.sigma && o.fail == ok {
			cost[o.key] = o.cost
		}
	}
	keys := make([]int, 0, len(cost))
	for k := range cost {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		sum += cost[k]
	}
	if len(keys) == 0 {
		return 0
	}
	return sum / float64(len(keys))
}

// runReference computes jobs on the uncached engine.
func runReference(jobs []engine.Job, workers int) ([]engine.Result, error) {
	res := engine.RunBatch(jobs, workers)
	for i, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("reference job %d: %w", i, r.Err)
		}
	}
	return res, nil
}
