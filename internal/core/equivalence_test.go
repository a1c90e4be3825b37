package core

// The equivalence suite guards the CSR and stage-queue Phase1: the
// optimized solvers must produce byte-identical outputs to the
// full-rescan semantics. Three angles:
//
//   - refPhase1 reimplements the first phase as a full O(n·|path|) rescan
//     of every instance at every step of every stage, with no caching,
//     and must agree with phase1 on exact float duals and identical
//     stacks;
//   - every solver entry point must return identical results on a fresh
//     Compiled, a warm Compiled, and a warm Compiled again (pooled-scratch
//     reuse — catches scratch contamination);
//   - the pooled warm solve path must stay allocation-free up to the
//     Result itself (testing.AllocsPerRun regression bounds).

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"treesched/internal/conflict"
	"treesched/internal/dist"
	"treesched/internal/gen"
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
					lp.Raise(rule, m, duals, i)
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

// phase1Combo is one (model, variant) configuration a solver entry point
// would run.
type phase1Combo struct {
	m *model.Model
	v variant
}

// phase1Combos lists the combinations the solvers run on a compiled
// problem at ε = eps, from the variant declarations the entry points pick.
func phase1Combos(t *testing.T, c *Compiled, eps float64) []phase1Combo {
	t.Helper()
	var combos []phase1Combo
	p := c.Problem()
	full, err := c.Model()
	if err != nil {
		t.Fatal(err)
	}
	if p.UnitHeight() {
		combos = append(combos, phase1Combo{full, unitVariant("unit", full, eps)})
		if p.Kind == instance.KindLine {
			combos = append(combos, phase1Combo{full, psVariant(full, eps)})
		}
	}
	wide, narrow, err := c.splitModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.m.Insts) > 0 {
		combos = append(combos, phase1Combo{wide.m, unitVariant("wide", wide.m, eps)})
	}
	if len(narrow.m.Insts) > 0 {
		if v, err := narrowVariant(p, narrow.m, eps, "equivalence"); err == nil {
			combos = append(combos, phase1Combo{narrow.m, v})
		}
	}
	return combos
}

// narrowTree is a 12-demand narrow tree problem whose least height is h:
// its narrow schedule runs about 1/h stages per epoch, most of them with
// no unsatisfied instance.
func narrowTree(h float64) *instance.Problem {
	rng := rand.New(rand.NewSource(5))
	p := gen.TreeProblem(gen.TreeConfig{N: 16, Trees: 2, Demands: 12, HMin: 0.05, HMax: 0.5}, rng)
	p.Demands[0].Height = h
	return p
}

// phase1GenProblems are generated families beside the presets, chosen
// so that most stages of an epoch are empty: a session-shaped unit tree,
// narrow trees at tiny heights, a windowed line and a capacitated tree.
func phase1GenProblems() map[string]*instance.Problem {
	rng := rand.New(rand.NewSource(9))
	return map[string]*instance.Problem{
		"session-shaped":   sessionShaped(1),
		"narrow-1e-2":      narrowTree(1e-2),
		"narrow-1e-3":      narrowTree(1e-3),
		"windowed-line":    gen.LineProblem(gen.LineConfig{Slots: 48, Resources: 3, Demands: 60, Unit: true, AccessProb: 0.6, MaxProc: 8, Slack: 8}, rng),
		"capacitated-tree": gen.TreeProblem(gen.TreeConfig{N: 32, Trees: 2, Demands: 60, HMin: 0.1, HMax: 1.0, Capacity: 1.5, CapJitter: 0.4, AccessProb: 0.6}, rng),
	}
}

// samePhase1 runs Phase1 and refPhase1 for one combination and seed and
// requires exactly equal duals (float bit equality), identical stacks and
// identical Phase2 selections.
func samePhase1(t *testing.T, label string, combo phase1Combo, seed uint64) {
	t.Helper()
	gotDuals, gotStack, err := Phase1(combo.m, combo.v.rule, combo.v.sched, seed, nil)
	if err != nil {
		t.Fatalf("%s: phase1: %v", label, err)
	}
	wantDuals, wantStack, err := refPhase1(combo.m, combo.v.rule, combo.v.sched, seed)
	if err != nil {
		t.Fatalf("%s: refPhase1: %v", label, err)
	}
	for i := range wantDuals.Alpha {
		if gotDuals.Alpha[i] != wantDuals.Alpha[i] {
			t.Fatalf("%s: α[%d]=%v want %v", label, i, gotDuals.Alpha[i], wantDuals.Alpha[i])
		}
	}
	for e := range wantDuals.Beta {
		if gotDuals.Beta[e] != wantDuals.Beta[e] {
			t.Fatalf("%s: β[%d]=%v want %v", label, e, gotDuals.Beta[e], wantDuals.Beta[e])
		}
	}
	if len(gotStack) != len(wantStack) {
		t.Fatalf("%s: stack len %d want %d", label, len(gotStack), len(wantStack))
	}
	for s := range wantStack {
		g, w := gotStack[s], wantStack[s]
		if g.Epoch != w.Epoch || g.Stage != w.Stage || g.Step != w.Step || !reflect.DeepEqual(g.Set, w.Set) {
			t.Fatalf("%s: stack[%d] = %+v want %+v", label, s, g, w)
		}
	}
	// The selections downstream of identical stacks must agree too
	// (exercises the pooled phase2 against the wrapper).
	if got, want := Phase2(combo.m, gotStack), Phase2(combo.m, wantStack); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: phase2 %v want %v", label, got, want)
	}
}

// TestPhase1MatchesFullRescanReference drives the stage-queue Phase1 and
// the full-rescan reference over every scenario and the generated
// families, at ε = 0.05, 0.25 and 0.6, on every applicable (rule,
// schedule) combination and three seeds.
func TestPhase1MatchesFullRescanReference(t *testing.T) {
	problems := scenarioProblems(t)
	for name, p := range phase1GenProblems() {
		problems[name] = p
	}
	for name, p := range problems {
		c, err := Compile(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, eps := range []float64{0.05, 0.25, 0.6} {
			for _, combo := range phase1Combos(t, c, eps) {
				for seed := uint64(1); seed <= 3; seed++ {
					samePhase1(t, fmt.Sprintf("%s/%s ε=%g seed %d", name, combo.v.name, eps, seed), combo, seed)
				}
			}
		}
	}
}

// TestPhase1StepCapMatchesReference forces every stage's step cap to 1,
// so the first stage that needs a second step aborts the phase, and
// requires Phase1 and the reference to abort at the same (epoch, stage),
// or both to finish.
func TestPhase1StepCapMatchesReference(t *testing.T) {
	problems := scenarioProblems(t)
	for name, p := range phase1GenProblems() {
		problems[name] = p
	}
	// stage parses the (epoch, stage) an abort names after prefix.
	stage := func(label, prefix string, err error) [2]int {
		var at [2]int
		if err == nil {
			return at
		}
		if _, serr := fmt.Sscanf(err.Error(), prefix+" stage (%d,%d)", &at[0], &at[1]); serr != nil {
			t.Fatalf("%s: %q: %v", label, err, serr)
		}
		return at
	}
	aborts := 0
	for name, p := range problems {
		c, err := Compile(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, combo := range phase1Combos(t, c, 0.25) {
			label := name + "/" + combo.v.name
			combo.v.sched.MaxSteps = 1
			_, _, gotErr := Phase1(combo.m, combo.v.rule, combo.v.sched, 1, nil)
			_, _, wantErr := refPhase1(combo.m, combo.v.rule, combo.v.sched, 1)
			got, want := stage(label, "core:", gotErr), stage(label, "ref:", wantErr)
			if (gotErr == nil) != (wantErr == nil) || got != want {
				t.Fatalf("%s: one step per stage: phase1 %v, reference %v", label, gotErr, wantErr)
			}
			if gotErr != nil {
				aborts++
			}
		}
	}
	if aborts == 0 {
		t.Fatal("no combination needs a second step in any stage: the cap is never exercised")
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

// TestWarmSequentialAllocations pins the warm allocations of the λ = 1
// sequential pass, which runs on the solverModel's pooled scratch and its
// once-sorted visiting order as runPhases does. On fresh-pair's binary
// and line families (160 demands) sequential and seq-line allocate 9 and
// 10 times per warm solve, as tree-unit and line-unit do on the same
// problems, where a pass that allocated its order, duals, stack and
// singleton sets per solve paid 125 and 590. The budget leaves room for
// the race detector, whose sync.Pool drops pooled scratches at random:
// under -race both pairs read 11–35. A traced warm solve must equal a
// cold one, raise for raise.
func TestWarmSequentialAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	binary := gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 4, Demands: 160, Shape: gen.ShapeBinary, Unit: true, AccessProb: 0.6}, rng)
	line := gen.LineProblem(gen.LineConfig{Slots: 64, Resources: 4, Demands: 160, Unit: true, AccessProb: 0.6, MaxProc: 6, Slack: 6}, rng)
	const budget = 32
	for _, tc := range []struct {
		p           *instance.Problem
		algo, paper string
	}{{binary, "sequential", "tree-unit"}, {line, "seq-line", "line-unit"}} {
		c, err := Compile(tc.p, 0)
		if err != nil {
			t.Fatal(err)
		}
		warm := func(name string) float64 {
			a, _ := Lookup(name)
			solve := func() {
				if _, _, err := a.Run(c, Options{Seed: 1}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			solve() // build the lazy model, its order and a pooled scratch
			return testing.AllocsPerRun(20, solve)
		}
		seq, paper := warm(tc.algo), warm(tc.paper)
		if seq > budget {
			t.Errorf("%s: %.1f allocs per warm solve, budget %d (%s: %.1f)", tc.algo, seq, budget, tc.paper, paper)
		}
		t.Logf("%s %.1f allocs per warm solve, %s %.1f", tc.algo, seq, tc.paper, paper)

		// A traced solve on the pooled scratch must record the raises a
		// cold one records: duals left over from the last solve would
		// satisfy every instance, and the stale stack would still give
		// the same selection.
		a, _ := Lookup(tc.algo)
		fresh, err := Compile(tc.p, 0)
		if err != nil {
			t.Fatal(err)
		}
		warmRes, _, warmErr := a.Run(c, Options{Seed: 1, CollectTrace: true})
		coldRes, _, coldErr := a.Run(fresh, Options{Seed: 1, CollectTrace: true})
		if warmErr != nil || coldErr != nil {
			t.Fatalf("%s: %v, %v", tc.algo, warmErr, coldErr)
		}
		if len(coldRes.Trace.Events) == 0 || !reflect.DeepEqual(warmRes.Trace, coldRes.Trace) || !SameSelection(warmRes, coldRes) {
			t.Errorf("%s: a warm traced solve records %d raises, a cold one %d", tc.algo, len(warmRes.Trace.Events), len(coldRes.Trace.Events))
		}
	}
}
