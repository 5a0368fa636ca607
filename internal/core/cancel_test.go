package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/taskgraph"
)

// TestRunContextCanceledBeforeStart: a dead context yields ctx.Err()
// without any scheduling work.
func TestRunContextCanceledBeforeStart(t *testing.T) {
	s, err := New(taskgraph.G3(), 230, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on dead ctx = %v, want context.Canceled", err)
	}
	if _, err := RunMultiStart(ctx, s, MultiStartOptions{Restarts: 4, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMultiStart on dead ctx = %v, want context.Canceled", err)
	}
}

// TestRunContextMatchesRun: a live context changes nothing — the result
// is bit-identical to the context-free path.
func TestRunContextMatchesRun(t *testing.T) {
	for _, g := range []*taskgraph.Graph{taskgraph.G2(), taskgraph.G3()} {
		s, err := New(g, g.MinTotalTime()*1.8, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := s.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, withCtx) {
			t.Fatalf("RunContext differs from Run:\n%+v\n%+v", plain, withCtx)
		}
	}
}

// TestRunContextAbortsMidSearch: cancellation during the search (forced
// by a deadline that expires almost immediately on a multi-start run
// with a large restart budget) surfaces the context error promptly
// instead of computing the remaining restarts.
func TestRunContextAbortsMidSearch(t *testing.T) {
	s, err := New(taskgraph.G3(), 230, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()

	start := time.Now()
	// ~4096 restarts ≈ 1s of sequential work; the 2ms deadline must cut
	// it far shorter than that.
	_, err = RunMultiStart(ctx, s, MultiStartOptions{Restarts: 4096, Seed: 3})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
}
