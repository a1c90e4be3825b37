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
//     cover ≥95% of the entry point's wall time;
//   - a recorded timeline stays bounded by the solve's phases: a constant
//     number of spans plus one per phase-1 epoch, however many stages a
//     schedule runs or steps its stages take.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"treesched/internal/gen"
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

// The span budget of a traced solve: spanBudgetBase spans for its
// phases (compile, phase1, verify_lambda, phase2 and assemble, twice for
// arbitrary's two sub-solves) plus spanBudgetPerEpoch per phase-1 epoch.
// Neither term reads the schedule's stage count or its steps.
const (
	spanBudgetBase     = 12
	spanBudgetPerEpoch = 1
)

// TestTelemetrySpanBudget runs every registry entry over every scenario
// and three seeds, as TestTelemetryEquivalence does, and holds each
// traced solve to the span budget. The epoch count comes from
// CollectTrace (one StepsPerStage row per epoch), not from the spans, and
// every epoch span must carry its epoch's sums: its stage count, its
// steps and its raises, and, over one phase-1 run, the Luby MIS phases.
func TestTelemetrySpanBudget(t *testing.T) {
	for name, p := range scenarioProblems(t) {
		c, err := Compile(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ep := range Algorithms() {
			for seed := uint64(1); seed <= 3; seed++ {
				tel := obs.NewTrace()
				opts := Options{Epsilon: 0.25, Seed: seed, MaxNodes: 500_000, CollectTrace: true, Telemetry: tel}
				res, _, err := ep.Run(c, opts)
				if err != nil {
					continue // a precondition error; TestTelemetryEquivalence pins it
				}
				checkSpanBudget(t, fmt.Sprintf("%s/%s seed %d", name, ep.Name, seed), tel.Spans(), phase1Traces(res))
			}
		}
	}
}

// phase1Traces lists the CollectTrace traces of res's multi-stage phase-1
// runs in solve order: its own, or its parts' when it combines
// sub-solves.
func phase1Traces(res *Result) []*Trace {
	var out []*Trace
	for _, r := range append([]*Result{res}, res.Parts...) {
		if r.Trace != nil && len(r.Trace.StepsPerStage) > 0 {
			out = append(out, r.Trace)
		}
	}
	return out
}

// checkSpanBudget holds spans to the span budget over the epochs of
// traces, and matches the epoch spans, grouped by their phase1 parent,
// to the traces' epochs.
func checkSpanBudget(t *testing.T, label string, spans []obs.Span, traces []*Trace) {
	t.Helper()
	epochs := 0
	for _, tr := range traces {
		epochs += len(tr.StepsPerStage)
	}
	if budget := spanBudgetBase + spanBudgetPerEpoch*epochs; len(spans) > budget {
		t.Fatalf("%s: %d spans over %d epochs, budget %d", label, len(spans), epochs, budget)
	}
	var runs [][]obs.Span
	parent := obs.NoSpan
	for _, sp := range spans {
		if sp.Name != "epoch" {
			continue
		}
		if len(runs) == 0 || sp.Parent != parent {
			runs = append(runs, nil)
			parent = sp.Parent
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], sp)
	}
	if len(runs) != len(traces) {
		t.Fatalf("%s: epoch spans under %d phase1 spans, %d multi-stage phase-1 runs", label, len(runs), len(traces))
	}
	for r, tr := range traces {
		if len(runs[r]) != len(tr.StepsPerStage) {
			t.Fatalf("%s: run %d has %d epoch spans over %d epochs", label, r, len(runs[r]), len(tr.StepsPerStage))
		}
		raises := map[int]int64{}
		for _, ev := range tr.Events {
			raises[ev.Epoch]++
		}
		var phases int64
		for k, sp := range runs[r] {
			steps := 0
			for _, s := range tr.StepsPerStage[k] {
				steps += s
			}
			want := map[string]int64{
				"stages": int64(len(tr.StepsPerStage[k])),
				"steps":  int64(steps),
				"raises": raises[k+1],
			}
			for name, v := range want {
				if got := spanCounter(sp, name); got != v {
					t.Fatalf("%s: run %d epoch %d: %s = %d, want %d", label, r, k+1, name, got, v)
				}
			}
			phases += spanCounter(sp, "mis_phases")
		}
		if phases != int64(tr.MISPhases) {
			t.Fatalf("%s: run %d: epoch spans count %d MIS phases, want %d", label, r, phases, tr.MISPhases)
		}
	}
}

// spanCounter reads one counter of a span, 0 when it is absent.
func spanCounter(sp obs.Span, name string) int64 {
	for _, c := range sp.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
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

// BenchmarkTracedSolve times arbitrary on one problem of fresh-pair's
// capacitated-tree family (160 demands on 4 trees of 64 vertices,
// heights 0.1–1), untraced and with a fresh Trace per solve, as a server
// sampling at any rate above 0 records one per request.
func BenchmarkTracedSolve(b *testing.B) {
	p := gen.TreeProblem(gen.TreeConfig{
		N: 64, Trees: 4, Demands: 160, HMin: 0.1, HMax: 1, Capacity: 1.6, CapJitter: 0.5, AccessProb: 0.6,
	}, rand.New(rand.NewSource(1)))
	c, err := Compile(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	a, _ := Lookup("arbitrary")
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			solve := func() {
				opts := Options{Seed: 1}
				if traced {
					opts.Telemetry = obs.NewTrace()
				}
				if _, _, err := a.Run(c, opts); err != nil {
					b.Fatal(err)
				}
			}
			solve() // build the lazy sub-models
			b.ReportAllocs()
			for b.Loop() {
				solve()
			}
		})
	}
}
