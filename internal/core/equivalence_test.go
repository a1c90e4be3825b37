package core

// The equivalence suite guards the CSR + incremental-Phase1 refactor: the
// optimized solvers must produce byte-identical outputs to the
// pre-refactor semantics. Three angles:
//
//   - refPhase1 reimplements the old first phase (full O(n·|path|) rescan
//     of every instance on every step, no LHS caching) and must agree with
//     the delta-driven phase1 on exact float duals and identical stacks;
//   - every solver entry point must return identical results on a fresh
//     Compiled, a warm Compiled, and a warm Compiled again (pooled-scratch
//     reuse — catches scratch contamination);
//   - the pooled warm solve path must stay allocation-free up to the
//     Result itself (testing.AllocsPerRun regression bounds).

import (
	"fmt"
	"reflect"
	"testing"

	"treesched/internal/conflict"
	"treesched/internal/dist"
	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/mis"
	"treesched/internal/model"
	"treesched/internal/scenario"
)

// refPhase1 is the pre-refactor Phase1 loop, kept verbatim as the
// reference: per step it rescans all n instances, evaluating each dual
// constraint from scratch.
func refPhase1(m *model.Model, rule lp.Rule, sched Schedule, seed uint64) (*lp.Duals, []StackEntry, error) {
	cg := conflict.Build(m)
	duals := lp.NewDuals(m)
	n := len(m.Insts)
	active := make([]bool, n)
	var stack []StackEntry
	stepCounter := uint64(0)

	for k := 1; k <= sched.Epochs; k++ {
		for j := 1; j <= sched.Stages; j++ {
			threshold := sched.Thresholds[j-1]
			steps := 0
			for {
				anyActive := false
				for i := 0; i < n; i++ {
					active[i] = int(m.Group[i]) == k &&
						!lp.Satisfied(rule, m, duals, int32(i), threshold)
					anyActive = anyActive || active[i]
				}
				if !anyActive {
					break
				}
				steps++
				if steps > sched.MaxSteps {
					return nil, nil, fmt.Errorf("ref: stage (%d,%d) exceeded %d steps", k, j, sched.MaxSteps)
				}
				stepCounter++
				sc := stepCounter
				set, _ := mis.LubyFunc(cg.Adj, active, func(i int32, phase int) float64 {
					return mis.Priority(seed, i, sc, phase)
				})
				for _, i := range set {
					rule.Raise(m, duals, i)
				}
				stack = append(stack, StackEntry{Epoch: k, Stage: j, Step: steps, Set: set})
			}
		}
	}
	return duals, stack, nil
}

// scenarioProblems materializes every registered scenario with a fixed
// generation seed — default params, except the benchmark-scale presets,
// which are sized down (the equivalence properties are size-independent;
// a 10^5-demand reference phase1 is not a unit test).
func scenarioProblems(t *testing.T) map[string]*instance.Problem {
	t.Helper()
	out := map[string]*instance.Problem{}
	for _, s := range scenario.All() {
		params := scenario.Params{}
		if s.Scale {
			params = scenario.Params{Demands: 48, Size: 64, Networks: 8}
		}
		p, err := s.Generate(params, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		out[s.Name] = p
	}
	if len(out) < 10 {
		t.Fatalf("expected ≥10 scenarios, got %d", len(out))
	}
	return out
}

// phase1Combo is one (model, rule, schedule) configuration a solver
// entry point would run.
type phase1Combo struct {
	name  string
	m     *model.Model
	rule  lp.Rule
	sched Schedule
}

// phase1Combos lists the combinations the solvers run on a compiled
// problem, mirroring the entry points' configuration.
func phase1Combos(t *testing.T, c *Compiled) []phase1Combo {
	t.Helper()
	var combos []phase1Combo
	p := c.Problem()
	full, err := c.Model()
	if err != nil {
		t.Fatal(err)
	}
	if p.UnitHeight() {
		combos = append(combos, phase1Combo{"unit", full, lp.Unit{}, NewSchedule(full, UnitXi(full.Delta), 0.25)})
		if p.Kind == instance.KindLine {
			combos = append(combos, phase1Combo{"ps", full, lp.Unit{}, NewSingleStageSchedule(full, 1/(5+0.25))})
		}
	}
	wide, narrow, err := c.splitModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.m.Insts) > 0 {
		combos = append(combos, phase1Combo{"wide", wide.m, lp.Unit{}, NewSchedule(wide.m, UnitXi(wide.m.Delta), 0.25)})
	}
	if len(narrow.m.Insts) > 0 {
		nm := narrow.m
		if hmin, err := effHMin(nm, "equivalence"); err == nil {
			combos = append(combos, phase1Combo{"narrow", nm, narrowRule(p), NewSchedule(nm, NarrowXi(nm.Delta, hmin), 0.25)})
		}
	}
	return combos
}

// TestPhase1MatchesFullRescanReference drives the incremental Phase1 and
// the pre-refactor full-rescan reference over every scenario and every
// applicable (rule, schedule) combination and requires exactly equal
// duals (float bit equality) and identical stacks.
func TestPhase1MatchesFullRescanReference(t *testing.T) {
	for name, p := range scenarioProblems(t) {
		c, err := Compile(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, combo := range phase1Combos(t, c) {
			for seed := uint64(1); seed <= 3; seed++ {
				gotDuals, gotStack, err := Phase1(combo.m, combo.rule, combo.sched, seed, nil)
				if err != nil {
					t.Fatalf("%s/%s seed %d: phase1: %v", name, combo.name, seed, err)
				}
				wantDuals, wantStack, err := refPhase1(combo.m, combo.rule, combo.sched, seed)
				if err != nil {
					t.Fatalf("%s/%s seed %d: refPhase1: %v", name, combo.name, seed, err)
				}
				for i := range wantDuals.Alpha {
					if gotDuals.Alpha[i] != wantDuals.Alpha[i] {
						t.Fatalf("%s/%s seed %d: α[%d]=%v want %v", name, combo.name, seed, i, gotDuals.Alpha[i], wantDuals.Alpha[i])
					}
				}
				for e := range wantDuals.Beta {
					if gotDuals.Beta[e] != wantDuals.Beta[e] {
						t.Fatalf("%s/%s seed %d: β[%d]=%v want %v", name, combo.name, seed, e, gotDuals.Beta[e], wantDuals.Beta[e])
					}
				}
				if len(gotStack) != len(wantStack) {
					t.Fatalf("%s/%s seed %d: stack len %d want %d", name, combo.name, seed, len(gotStack), len(wantStack))
				}
				for s := range wantStack {
					g, w := gotStack[s], wantStack[s]
					if g.Epoch != w.Epoch || g.Stage != w.Stage || g.Step != w.Step || !reflect.DeepEqual(g.Set, w.Set) {
						t.Fatalf("%s/%s seed %d: stack[%d] = %+v want %+v", name, combo.name, seed, s, g, w)
					}
				}
				// The selections downstream of identical stacks must agree
				// too (exercises the pooled phase2 against the wrapper).
				if got, want := Phase2(combo.m, gotStack), Phase2(combo.m, wantStack); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s seed %d: phase2 %v want %v", name, combo.name, seed, got, want)
				}
			}
		}
	}
}

// solveOutcome is the comparable projection of one entry-point run:
// either an error string or the result fields that must be identical
// across fresh/warm/pooled executions.
type solveOutcome struct {
	Err      string
	Name     string
	Selected []instance.Inst
	Profit   float64
	DualUB   float64
	Ratio    float64
	Bound    float64
	Lambda   float64
	Rounds   int
	Messages int64
	Entries  int64
	Aggs     int
}

func outcomeOf(res *Result, st *dist.Stats, err error) solveOutcome {
	if err != nil {
		return solveOutcome{Err: err.Error()}
	}
	out := solveOutcome{
		Name: res.Name, Selected: res.Selected, Profit: res.Profit,
		DualUB: res.DualUB, Ratio: res.CertifiedRatio, Bound: res.Bound,
		Lambda: res.Lambda,
	}
	if st != nil {
		out.Rounds = st.Rounds
		out.Messages = st.Messages
		out.Entries = st.Entries
		out.Aggs = st.Aggregations
	}
	return out
}

// TestEntryPointsFreshWarmPooledIdentical runs every registry entry
// on all 10 scenarios three ways — fresh Compiled, warm Compiled, warm
// again on the pooled scratch — and requires identical outcomes
// (including identical precondition errors where an algorithm does not
// apply to a scenario).
func TestEntryPointsFreshWarmPooledIdentical(t *testing.T) {
	opts := Options{Epsilon: 0.25, Seed: 7, MaxNodes: 500_000}
	for name, p := range scenarioProblems(t) {
		warm, err := Compile(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ep := range Algorithms() {
			first := outcomeOf(ep.Run(warm, opts))
			again := outcomeOf(ep.Run(warm, opts))
			fresh, err := Compile(p, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cold := outcomeOf(ep.Run(fresh, opts))
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%s/%s: pooled re-solve diverged:\n  %+v\nvs\n  %+v", name, ep.Name, first, again)
			}
			if !reflect.DeepEqual(first, cold) {
				t.Fatalf("%s/%s: warm vs fresh diverged:\n  %+v\nvs\n  %+v", name, ep.Name, first, cold)
			}
		}
	}
}

// TestWarmSolveAllocations pins the allocation budget of the pooled warm
// solve path: after the first solve has warmed a Compiled, subsequent
// solves may allocate only the Result and trimmings. The bounds are ~4×
// the measured values so real regressions (a rescan loop, an unpooled
// buffer) trip them while noise does not.
func TestWarmSolveAllocations(t *testing.T) {
	cases := []struct {
		scenario string
		algo     string
		run      func(c *Compiled) error
		maxAlloc float64
	}{
		{"videowall-line", "line-unit", func(c *Compiled) error { _, err := c.LineUnit(Options{Seed: 1}); return err }, 64},
		{"caterpillar-backbone", "tree-unit", func(c *Compiled) error { _, err := c.TreeUnit(Options{Seed: 1}); return err }, 64},
		{"narrow-stream", "narrow", func(c *Compiled) error { _, err := c.NarrowOnly(Options{Seed: 1}); return err }, 96},
		{"capacitated-tree", "arbitrary", func(c *Compiled) error { _, err := c.Arbitrary(Options{Seed: 1}); return err }, 192},
	}
	for _, tc := range cases {
		s, ok := scenario.Get(tc.scenario)
		if !ok {
			t.Fatalf("unknown scenario %s", tc.scenario)
		}
		p, err := s.Generate(scenario.Params{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.run(c); err != nil { // warm the lazy models + pool
			t.Fatalf("%s/%s: %v", tc.scenario, tc.algo, err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if err := tc.run(c); err != nil {
				t.Fatalf("%s/%s: %v", tc.scenario, tc.algo, err)
			}
		})
		if avg > tc.maxAlloc {
			t.Errorf("%s/%s: %.1f allocs/solve on the warm path, budget %g",
				tc.scenario, tc.algo, avg, tc.maxAlloc)
		}
	}
}
