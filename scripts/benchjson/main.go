// Command benchjson converts `go test -bench` output into the repo's
// machine-readable benchmark snapshot format (BENCH_<date>.json): one
// entry per benchmark keyed "package:BenchmarkName", carrying the mean
// ns/op, B/op and allocs/op over however many -count samples appear, plus
// the sample count so consumers can judge stability. scripts/bench.sh is
// the canonical driver; see ARCHITECTURE.md §Performance for how the
// snapshots record the perf trajectory.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./scripts/benchjson [-o out.json]
//
// Lines that are not benchmark results (pkg/goos/cpu headers, PASS/ok)
// set context or are ignored, so raw `go test` output pipes straight in.
// The snapshot also records the host next to the numbers: GOMAXPROCS
// (from the benchmark names' -N suffix), the CPU count, the Go version
// and, inside a git checkout, the commit measured.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark's aggregated measurements.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// Snapshot is the BENCH_<date>.json document.
type Snapshot struct {
	Generated  string           `json:"generated"`
	GoOS       string           `json:"goos,omitempty"`
	GoArch     string           `json:"goarch,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	GoMaxProcs int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	GoVersion  string           `json:"go_version"`
	Commit     string           `json:"commit,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkScalingTasks/n=80-8  61  10419264 ns/op  64640 B/op  249 allocs/op
//
// The -N suffix is GOMAXPROCS; go test omits it when GOMAXPROCS is 1.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	type acc struct {
		ns, b, allocs float64
		n             int
	}
	sums := map[string]*acc{}
	snap := Snapshot{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Benchmarks: map[string]Entry{},
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		snap.Commit = strings.TrimSpace(string(rev))
	}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		case strings.HasPrefix(line, "goos: "):
			snap.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
			continue
		case strings.HasPrefix(line, "goarch: "):
			snap.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
			continue
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		snap.GoMaxProcs = 1
		if m[2] != "" {
			snap.GoMaxProcs = int(mustFloat(m[2]))
		}
		key := m[1]
		if pkg != "" {
			key = pkg + ":" + m[1]
		}
		a := sums[key]
		if a == nil {
			a = &acc{}
			sums[key] = a
		}
		a.ns += mustFloat(m[3])
		if m[4] != "" {
			a.b += mustFloat(m[4])
		}
		if m[5] != "" {
			a.allocs += mustFloat(m[5])
		}
		a.n++
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading input:", err)
		os.Exit(1)
	}
	if len(sums) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	for key, a := range sums {
		n := float64(a.n)
		snap.Benchmarks[key] = Entry{
			NsPerOp:     a.ns / n,
			BPerOp:      a.b / n,
			AllocsPerOp: a.allocs / n,
			Samples:     a.n,
		}
	}

	enc, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func mustFloat(s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: bad number %q: %v\n", s, err)
		os.Exit(1)
	}
	return f
}
