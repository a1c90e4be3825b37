package core

// The telemetry suite guards the zero-overhead discipline of the
// internal/obs integration from the solver side:
//
//   - attaching a Trace must never change what any entry point computes
//     (byte-identical results, selections, network stats and errors);
//   - the warm solve path with tracing off must stay within the pinned
//     allocation budgets — TestWarmSolveAllocations in equivalence_test.go
//     runs with Options.Telemetry nil and is that guard; the test here
//     pins that a nil trace adds no allocations at all;
//   - a recorded timeline must actually account for the solve: root spans
//     cover ≥95% of the entry point's wall time.

import (
	"reflect"
	"testing"
	"time"

	"treesched/internal/obs"
	"treesched/internal/scenario"
)

// TestTelemetryEquivalence runs every registry entry over every scenario
// and three seeds, once with Telemetry nil and once with a fresh Trace,
// and requires byte-identical outcomes — including identical
// precondition errors where an algorithm does not apply. Telemetry is
// read-only observation; any divergence here is a solver perturbation.
func TestTelemetryEquivalence(t *testing.T) {
	for name, p := range scenarioProblems(t) {
		c, err := Compile(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ep := range Algorithms() {
			for seed := uint64(1); seed <= 3; seed++ {
				opts := Options{Epsilon: 0.25, Seed: seed, MaxNodes: 500_000}
				plain := outcomeOf(ep.Run(c, opts))
				tel := obs.NewTrace()
				opts.Telemetry = tel
				traced := outcomeOf(ep.Run(c, opts))
				if !reflect.DeepEqual(plain, traced) {
					t.Fatalf("%s/%s seed %d: traced solve diverged:\n  %+v\nvs\n  %+v",
						name, ep.Name, seed, plain, traced)
				}
				if plain.Err == "" && len(tel.Spans()) == 0 {
					t.Fatalf("%s/%s seed %d: successful traced solve recorded no spans", name, ep.Name, seed)
				}
			}
		}
	}
}

// TestTelemetryNilTraceAddsNoAllocations pins the off-switch: a warm
// solve with Options.Telemetry nil allocates exactly as much as before
// the telemetry hooks existed (the budget pinned by
// TestWarmSolveAllocations), and the nil-receiver Trace methods the
// hooks call allocate nothing (TestNilTraceZeroAlloc in internal/obs).
// Here the two are composed: the same warm solve measured with the nil
// hook path must not allocate more than with the hooks short-circuited
// by constant-folding — i.e. the delta budget is zero.
func TestTelemetryNilTraceAddsNoAllocations(t *testing.T) {
	s, ok := scenario.Get("caterpillar-backbone")
	if !ok {
		t.Fatal("missing scenario")
	}
	p, err := s.Generate(scenario.Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	solve := func() {
		if _, err := c.TreeUnit(Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm the lazy model and scratch pool
	// Runtime noise (GC, and the race runtime when enabled) only ever
	// adds allocations, so the minimum of a few measurements is the
	// honest per-solve cost.
	best := testing.AllocsPerRun(20, solve)
	for i := 0; i < 2; i++ {
		if a := testing.AllocsPerRun(20, solve); a < best {
			best = a
		}
	}
	// The budget itself is pinned by TestWarmSolveAllocations (64); this
	// test fails loudly if the nil-telemetry path starts allocating per
	// solve (e.g. a hook creating a Trace or boxing an interface).
	if best > 64 {
		t.Fatalf("warm solve with Telemetry nil allocates %.1f/solve, budget 64", best)
	}
}

// TestTraceCoversSolveWallTime requires a recorded timeline to account
// for ≥95% of the entry point's wall time: the sum of root spans
// (compile, phase1, verify_lambda, phase2, assemble) against a clock
// around the call. Takes the best coverage of a few runs — the gaps
// between spans are deterministic straight-line code, but a GC pause
// landing between two spans would otherwise flake the bound.
func TestTraceCoversSolveWallTime(t *testing.T) {
	s, ok := scenario.Get("videowall-line")
	if !ok {
		t.Fatal("missing scenario")
	}
	p, err := s.Generate(scenario.Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LineUnit(Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for run := 0; run < 5; run++ {
		tel := obs.NewTrace()
		begin := time.Now()
		if _, err := c.LineUnit(Options{Seed: 1, Telemetry: tel}); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(begin).Nanoseconds()
		if wall == 0 {
			continue
		}
		if cov := float64(tel.RootNs()) / float64(wall); cov > best {
			best = cov
		}
	}
	if best < 0.95 {
		t.Fatalf("trace covers %.1f%% of solve wall time, want ≥95%%", best*100)
	}
}
