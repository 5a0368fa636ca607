package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dvs"
	"repro/internal/taskgraph"
)

// forkJoinJSON returns a seeded fork-join graph of n tasks (four
// branches, a five-task tail, five G3-style design points per task) as
// compact JSON, plus its feasible completion-time range.
func forkJoinJSON(seed int64, n int) (spec []byte, lo, hi float64) {
	rng := rand.New(rand.NewSource(seed))
	recipe := dvs.Recipe{Factors: dvs.G3Factors, Rule: dvs.TimeReversedLinear, Round: 1}
	points, err := recipe.PointsFunc(dvs.RandomRefs(rng, n, 300, 900, 2, 8))
	if err != nil {
		panic(err)
	}
	g, err := taskgraph.ForkJoin(4, (n-6)/4, 5, points)
	if err != nil {
		panic(err)
	}
	spec, err = json.Marshal(g.ToSpec(""))
	if err != nil {
		panic(err)
	}
	return spec, g.MinTotalTime(), g.MaxTotalTime()
}

// sweepBody is one deadline sweep as an NDJSON body: the same inline
// graph on every line, one line per deadline across the feasible range.
func sweepBody(seed int64, n, deadlines int) []byte {
	spec, lo, hi := forkJoinJSON(seed, n)
	var body bytes.Buffer
	for k := 0; k < deadlines; k++ {
		d := lo + (0.3+0.56*float64(k)/float64(deadlines-1))*(hi-lo)
		fmt.Fprintf(&body, "{\"graph\":%s,\"deadline\":%.1f}\n", spec, d)
	}
	return body.Bytes()
}

// distinctBody is an async-queue-shaped NDJSON body of 64 jobs: fixture
// jobs at assorted deadlines and priorities, with every 8th line an
// inline n=40 graph of its own.
func distinctBody(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var body bytes.Buffer
	for i := 0; i < 64; i++ {
		prio := []int{0, 0, 0, 0, 0, 0, 0, 5, 5, 9}[rng.Intn(10)]
		switch {
		case i%8 == 7:
			spec, lo, hi := forkJoinJSON(seed*1000+int64(i), 40)
			fmt.Fprintf(&body, "{\"graph\":%s,\"deadline\":%.1f,\"priority\":%d}\n", spec, lo+0.5*(hi-lo), prio)
		case i%2 == 0:
			fmt.Fprintf(&body, "{\"fixture\":\"g2\",\"deadline\":%.3f,\"priority\":%d}\n", 60+20*rng.Float64(), prio)
		default:
			fmt.Fprintf(&body, "{\"fixture\":\"g3\",\"deadline\":%.3f,\"priority\":%d}\n", 150+80*rng.Float64(), prio)
		}
	}
	return body.Bytes()
}

// BenchmarkDecodeJobs measures the batch decoder on two body shapes:
// sweep, one n=80 graph at 8 deadlines (the graph repeats on every
// line), and distinct, 64 async jobs whose inline graphs never repeat.
func BenchmarkDecodeJobs(b *testing.B) {
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"sweep", sweepBody(1, 80, 8)},
		{"distinct", distinctBody(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				_, _, errs, err := DecodeJobs(bytes.NewReader(bc.body))
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range errs {
					if e != nil {
						b.Fatal(e)
					}
				}
			}
		})
	}
}
