package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/fault"
)

// host is the metadata recorded with every result, so a number is never
// read apart from the machine and build that produced it.
type host struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	PGO        string `json:"daemon_pgo"`
}

func hostInfo(root, daemonBin string) (host, error) {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		PGO:        "off",
	}
	// A checkout without git history still identifies its code by the
	// hash of its sources. git runs only on the checkout's own .git, so
	// it never reports an enclosing repository's commit.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	sum, err := sourceHash(root)
	if err != nil {
		return h, err
	}
	h.SourceHash = sum
	bi, err := buildinfo.ReadFile(daemonBin)
	if err != nil {
		return h, fmt.Errorf("reading daemon build info: %w", err)
	}
	for _, s := range bi.Settings {
		if s.Key == "-pgo" && s.Value != "" {
			h.PGO = s.Value
			if rel, err := filepath.Rel(root, s.Value); err == nil {
				h.PGO = rel
			}
		}
	}
	return h, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source, module file and PGO profile under
// root, skipping dot directories (VCS data, the benchmark's build
// output).
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && !strings.HasSuffix(path, ".pgo") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// noSyncFS is the real filesystem without fsync. The benchmark writes
// its pre-populated store through it: that store is an input the run
// recreates, so its durability does not matter, and 8192 fsyncs would
// dominate the run. The daemon's own writes keep their fsyncs.
type noSyncFS struct{ fault.FS }

func (n noSyncFS) CreateTemp(dir, pattern string) (fault.File, error) {
	f, err := n.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ fault.File }

func (noSyncFile) Sync() error { return nil }

// linkTree recreates src's tree at dst with every file hard-linked. The
// store replaces entries by rename and never writes a file in place, so
// a daemon running on the copy leaves src's entries intact; a disk hit
// refreshes the shared mtime, which only orders evictions, and no run
// comes near the store's byte budget.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		return os.Link(path, target)
	})
}
