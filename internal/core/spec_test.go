package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/battery"
	"repro/internal/taskgraph"
)

// TestBatterySpecOptionsBitIdentical proves the declarative path is a
// pure refactor of the model path: for every kind, scheduling with
// Options.Battery produces a Result bit-identical (float bits, exact
// order/assignment/iterations) to scheduling with the equivalent
// hand-built model through NewBaseWithModel — and the default spec is
// bit-identical to zero options.
func TestBatterySpecOptionsBitIdentical(t *testing.T) {
	g := taskgraph.G3()
	cases := []struct {
		name  string
		spec  battery.Spec
		model battery.Model
	}{
		{"default-vs-zero-options", battery.DefaultSpec(), nil},
		{"rakhmatov-beta", battery.Spec{Kind: battery.KindRakhmatov, Beta: 0.5}, battery.NewRakhmatov(0.5)},
		{"ideal", battery.Spec{Kind: battery.KindIdeal}, battery.Ideal{}},
		{"peukert", battery.Spec{Kind: battery.KindPeukert, Exponent: 1.2, RefCurrent: 100}, battery.NewPeukert(1.2, 100)},
		{"kibam", battery.Spec{Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}, battery.NewKiBaM(40000, 0.5, 0.1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			sSpec := mustScheduler(t, g, taskgraph.G3Deadline, Options{Battery: &spec})
			sModel := mustScheduler(t, g, taskgraph.G3Deadline, Options{})
			if c.model != nil {
				sModel = schedulerWithModel(t, g, taskgraph.G3Deadline, c.model)
			}
			got, err := sSpec.Run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := sModel.Run()
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, got, want)
		})
	}
}

// requireBitIdentical compares two results the equivalence suite's way:
// float fields as raw bits, structures exactly.
func requireBitIdentical(t *testing.T, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
		math.Float64bits(got.Duration) != math.Float64bits(want.Duration) ||
		math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
		got.Iterations != want.Iterations {
		t.Fatalf("scalar mismatch: got (%x, %x, %x, %d), want (%x, %x, %x, %d)",
			math.Float64bits(got.Cost), math.Float64bits(got.Duration), math.Float64bits(got.Energy), got.Iterations,
			math.Float64bits(want.Cost), math.Float64bits(want.Duration), math.Float64bits(want.Energy), want.Iterations)
	}
	if len(got.Schedule.Order) != len(want.Schedule.Order) {
		t.Fatalf("order length mismatch")
	}
	for k := range got.Schedule.Order {
		if got.Schedule.Order[k] != want.Schedule.Order[k] {
			t.Fatalf("order mismatch at %d: %v vs %v", k, got.Schedule.Order, want.Schedule.Order)
		}
	}
	for id, j := range want.Schedule.Assignment {
		if got.Schedule.Assignment[id] != j {
			t.Fatalf("assignment mismatch for task %d: %d vs %d", id, got.Schedule.Assignment[id], j)
		}
	}
}

func TestBatterySpecOptionErrors(t *testing.T) {
	g := taskgraph.G3()

	// Invalid spec: New fails with the battery package's field-naming
	// error instead of panicking deep in a window sweep.
	bad := battery.Spec{Kind: battery.KindKiBaM, Capacity: 100, WellFraction: 0.5, RateConstant: -1}
	if _, err := New(g, taskgraph.G3Deadline, Options{Battery: &bad}); err == nil || !strings.Contains(err.Error(), "rate_constant") {
		t.Fatalf("New with invalid spec: %v", err)
	}

	// A non-physical rakhmatov beta is an error, not a silently-squared
	// sign.
	neg := battery.Spec{Kind: battery.KindRakhmatov, Beta: -0.273}
	if _, err := New(g, taskgraph.G3Deadline, Options{Battery: &neg}); err == nil || !strings.Contains(err.Error(), "\"beta\"") {
		t.Fatalf("New with negative beta: %v", err)
	}
	nan := battery.Spec{Kind: battery.KindRakhmatov, Beta: math.NaN()}
	if _, err := (Options{Battery: &nan}).ResolveModel(); err == nil {
		t.Fatal("ResolveModel with NaN beta should error")
	}
}

func TestOptionsBatterySpec(t *testing.T) {
	// The zero options' spec is the default battery.
	spec := Options{}.BatterySpec()
	if string(spec.AppendCanonical(nil)) != string(battery.DefaultSpec().AppendCanonical(nil)) {
		t.Fatalf("zero options spec = %+v", spec)
	}
	// A spec leaving defaults zero canonicalizes like the spelled-out
	// one — the property that makes them share a cache entry.
	short := Options{Battery: &battery.Spec{Kind: " Rakhmatov", Beta: 0.35}}.BatterySpec()
	full := Options{Battery: &battery.Spec{Kind: battery.KindRakhmatov, Beta: 0.35, Terms: battery.DefaultTerms}}.BatterySpec()
	if string(short.AppendCanonical(nil)) != string(full.AppendCanonical(nil)) {
		t.Fatalf("specs %+v and %+v canonicalize differently", short, full)
	}
}

// TestRunnerSteadyStateZeroAllocWithSpec extends the zero-alloc
// guarantee to spec-based options: resolution happens once in NewBase,
// so the steady state stays allocation-free exactly as for the default
// configuration, also when consecutive runs alternate deadlines.
func TestRunnerSteadyStateZeroAllocWithSpec(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	spec := battery.Spec{Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}
	r := mustRunner(t, taskgraph.G3(), Options{Battery: &spec})
	deadlines := []float64{taskgraph.G3Deadline, 150}
	for _, d := range deadlines {
		if _, err := r.Run(context.Background(), d); err != nil {
			t.Fatalf("warm-up at %g: %v", d, err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, d := range deadlines {
			if _, err := r.Run(context.Background(), d); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Runner.Run with a battery spec allocates %v per deadline pair, want 0", allocs)
	}
}
