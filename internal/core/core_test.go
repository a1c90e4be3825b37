package core

import (
	"math"
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/verify"
)

func TestTreeUnitEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 10 + rng.Intn(40), Trees: 1 + rng.Intn(3), Demands: 5 + rng.Intn(30), Unit: true,
		}, rng)
		res, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: uint64(trial), CollectTrace: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.Solution(p, res.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.EdgeDisjoint(p, res.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Profit <= 0 && len(p.Demands) > 0 {
			t.Fatalf("trial %d: empty solution", trial)
		}
		// Lemma 3.1: val(α,β) ≤ (∆+1)·p(S) ⇒ certified ratio ≤ bound.
		if res.CertifiedRatio > res.Bound+1e-6 {
			t.Fatalf("trial %d: certified ratio %.3f exceeds bound %.3f", trial, res.CertifiedRatio, res.Bound)
		}
		if res.Bound > 7/(1-0.25)+1e-9 {
			t.Fatalf("trial %d: bound %.3f exceeds 7+ε", trial, res.Bound)
		}
		if err := CheckInterference(res.Model, res.Trace); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestTreeUnitAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	worst := 1.0
	for trial := 0; trial < 10; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 8 + rng.Intn(8), Trees: 1 + rng.Intn(2), Demands: 4 + rng.Intn(8), Unit: true,
		}, rng)
		res, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := solve(p, "exact", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Profit > opt.Profit+1e-9 {
			t.Fatalf("trial %d: algorithm beat the optimum?! %g > %g", trial, res.Profit, opt.Profit)
		}
		// DualUB really is an upper bound on OPT.
		if opt.Profit > res.DualUB+1e-6 {
			t.Fatalf("trial %d: OPT %g exceeds dual bound %g", trial, opt.Profit, res.DualUB)
		}
		ratio := opt.Profit / res.Profit
		if ratio > 7/(1-0.25)+1e-9 {
			t.Fatalf("trial %d: true ratio %.3f exceeds 7+ε", trial, ratio)
		}
		if ratio > worst {
			worst = ratio
		}
	}
	t.Logf("worst true ratio over trials: %.3f", worst)
}

func TestLineUnitEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 20 + rng.Intn(40), Resources: 1 + rng.Intn(3), Demands: 5 + rng.Intn(20), Unit: true,
		}, rng)
		res, err := solve(p, "line-unit", Options{Epsilon: 0.25, Seed: uint64(trial), CollectTrace: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.Solution(p, res.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.CertifiedRatio > res.Bound+1e-6 {
			t.Fatalf("trial %d: certified ratio %.3f > bound %.3f", trial, res.CertifiedRatio, res.Bound)
		}
		if res.Bound > 4/(1-0.25)+1e-9 {
			t.Fatalf("trial %d: bound %.3f exceeds 4+ε", trial, res.Bound)
		}
		if err := CheckInterference(res.Model, res.Trace); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLineUnitAgainstExactAndPS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 16, Resources: 1 + rng.Intn(2), Demands: 4 + rng.Intn(6), Unit: true, MaxProc: 5,
		}, rng)
		res, err := solve(p, "line-unit", Options{Epsilon: 0.25, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := solve(p, "ps", Options{Epsilon: 0.25, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Solution(p, ps.Selected); err != nil {
			t.Fatal(err)
		}
		opt, err := solve(p, "exact", Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Result{res, ps} {
			if opt.Profit > r.DualUB+1e-6 {
				t.Fatalf("%s: OPT %g above dual UB %g", r.Name, opt.Profit, r.DualUB)
			}
			if r.Profit > opt.Profit+1e-9 {
				t.Fatalf("%s beat optimum", r.Name)
			}
		}
		// The bound ordering the paper claims: ours 4+ε vs theirs 20+ε.
		if res.Bound >= ps.Bound {
			t.Fatalf("multi-stage bound %.2f should beat single-stage %.2f", res.Bound, ps.Bound)
		}
	}
}

func TestNarrowOnlyEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 12 + rng.Intn(20), Trees: 1 + rng.Intn(2), Demands: 5 + rng.Intn(15),
			HMin: 0.15, HMax: 0.5,
		}, rng)
		res, err := solve(p, "narrow", Options{Epsilon: 0.25, Seed: uint64(trial), CollectTrace: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.Solution(p, res.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Lemma 6.1: val ≤ (2∆²+1)p(S) ⇒ certified ratio ≤ (2∆²+1)/λ.
		if res.CertifiedRatio > res.Bound+1e-6 {
			t.Fatalf("trial %d: certified ratio %.3f > bound %.3f", trial, res.CertifiedRatio, res.Bound)
		}
		if err := CheckInterference(res.Model, res.Trace); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestNarrowOnlyRejectsWide(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := gen.TreeProblem(gen.TreeConfig{N: 10, Trees: 1, Demands: 5, HMin: 0.8, HMax: 0.9}, rng)
	if _, err := solve(p, "narrow", Options{}); err == nil {
		t.Fatal("accepted wide instances")
	}
}

func TestArbitraryEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 12 + rng.Intn(20), Trees: 1 + rng.Intn(2), Demands: 6 + rng.Intn(14),
			HMin: 0.1, HMax: 1.0,
		}, rng)
		res, err := solve(p, "arbitrary", Options{Epsilon: 0.25, Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.Solution(p, res.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The per-network combine never loses profit against the better
		// part: p(S) ≥ max(p(S1), p(S2)) (§6 "Overall Algorithm").
		for _, part := range res.Parts {
			if res.Profit < part.Profit-1e-9 {
				t.Fatalf("trial %d: combined profit %g below part %q's %g",
					trial, res.Profit, part.Name, part.Profit)
			}
		}
		if res.CertifiedRatio > res.Bound+1e-6 {
			t.Fatalf("trial %d: certified ratio %.3f > combined bound %.3f", trial, res.CertifiedRatio, res.Bound)
		}
		// Theorem 6.3: combined bound ≤ (7+ε)+(73+ε) = 80+2ε.
		if res.Bound > 80/(1-0.25)+1e-6 {
			t.Fatalf("trial %d: bound %.3f above 80+ε scale", trial, res.Bound)
		}
	}
}

func TestArbitraryLineEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 24, Resources: 1 + rng.Intn(2), Demands: 6 + rng.Intn(10),
			HMin: 0.1, HMax: 1.0, MaxProc: 6,
		}, rng)
		res, err := solve(p, "arbitrary", Options{Epsilon: 0.25, Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.Solution(p, res.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Theorem 7.2: bound (4+ε)+(19+ε) = 23+2ε.
		if res.Bound > 23/(1-0.25)+1e-6 {
			t.Fatalf("trial %d: line arbitrary bound %.3f too large", trial, res.Bound)
		}
		opt, err := solve(p, "exact", Options{})
		if err == nil && opt.Profit > res.DualUB+1e-6 {
			t.Fatalf("trial %d: OPT above combined dual UB", trial)
		}
	}
}

func TestSequentialEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		trees := 1 + rng.Intn(3)
		p := gen.TreeProblem(gen.TreeConfig{
			N: 8 + rng.Intn(12), Trees: trees, Demands: 4 + rng.Intn(10), Unit: true,
		}, rng)
		res, err := solve(p, "sequential", Options{CollectTrace: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.Solution(p, res.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantBound := 3.0
		if trees == 1 {
			wantBound = 2.0
		}
		if res.Bound != wantBound {
			t.Fatalf("trial %d: bound %g want %g", trial, res.Bound, wantBound)
		}
		if res.CertifiedRatio > wantBound+1e-6 {
			t.Fatalf("trial %d: certified ratio %.3f > %g", trial, res.CertifiedRatio, wantBound)
		}
		if err := CheckInterference(res.Model, res.Trace); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := solve(p, "exact", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if opt.Profit/res.Profit > wantBound+1e-9 {
			t.Fatalf("trial %d: true ratio %.3f above %g", trial, opt.Profit/res.Profit, wantBound)
		}
	}
}

func TestExactMatchesBruteForceTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 6; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{N: 6, Trees: 1, Demands: 4, Unit: true}, rng)
		opt, err := solve(p, "exact", Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over all demand subsets with the only instance each.
		insts := p.Expand()
		best := 0.0
		for mask := 0; mask < 1<<len(insts); mask++ {
			var sel []int
			for b := 0; b < len(insts); b++ {
				if mask&(1<<b) != 0 {
					sel = append(sel, b)
				}
			}
			feasible := true
			var picked []int
			for _, x := range sel {
				picked = append(picked, x)
			}
			// Check pairwise conflicts.
			total := 0.0
			for ai := 0; ai < len(picked) && feasible; ai++ {
				total += insts[picked[ai]].Profit
				for bi := ai + 1; bi < len(picked); bi++ {
					if p.Conflict(insts[picked[ai]], insts[picked[bi]]) {
						feasible = false
						break
					}
				}
			}
			if feasible && total > best {
				best = total
			}
		}
		if math.Abs(best-opt.Profit) > 1e-9 {
			t.Fatalf("trial %d: exact %g vs brute force %g", trial, opt.Profit, best)
		}
	}
}

func TestExactNodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := gen.TreeProblem(gen.TreeConfig{N: 30, Trees: 3, Demands: 40, Unit: true}, rng)
	if _, err := solve(p, "exact", Options{MaxNodes: 10}); err == nil {
		t.Fatal("node budget not enforced")
	}
}

func TestGreedyFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 6; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{N: 15, Trees: 2, Demands: 12, HMin: 0.2, HMax: 1}, rng)
		res, err := solve(p, "greedy", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Solution(p, res.Selected); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := gen.TreeProblem(gen.TreeConfig{N: 25, Trees: 2, Demands: 18, Unit: true}, rng)
	a, err := solve(p, "tree-unit", Options{Epsilon: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solve(p, "tree-unit", Options{Epsilon: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !SameSelection(a, b) || a.Profit != b.Profit {
		t.Fatal("same seed produced different results")
	}
	c, err := solve(p, "tree-unit", Options{Epsilon: 0.2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may or may not differ; just must be feasible
	if err := verify.Solution(p, c.Selected); err != nil {
		t.Fatal(err)
	}
}

func TestPaperFigure2Golden(t *testing.T) {
	// Unit heights: the three demands pairwise share edge ⟨4,5⟩, so the
	// optimum picks exactly the max-profit demand (profit 3).
	p := gen.PaperFigure2Problem(true)
	opt, err := solve(p, "exact", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Profit != 3 || len(opt.Selected) != 1 {
		t.Fatalf("unit optimum = %g with %d demands, want 3 with 1", opt.Profit, len(opt.Selected))
	}
	res, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Solution(p, res.Selected); err != nil {
		t.Fatal(err)
	}
	// Heights 0.4/0.7/0.3: first and third demands fit together (0.7 on
	// the shared edge), so the optimum is 3+1 = 4.
	p2 := gen.PaperFigure2Problem(false)
	opt2, err := solve(p2, "exact", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt2.Profit != 4 || len(opt2.Selected) != 2 {
		t.Fatalf("arbitrary optimum = %g with %d demands, want 4 with 2", opt2.Profit, len(opt2.Selected))
	}
}

func TestPaperFigure1Golden(t *testing.T) {
	// Figure 1: {A,C} and {B,C} feasible, {A,B} not ⇒ optimum is {A,C}
	// with profit 9 under our profits (A=5, B=6, C=4: {B,C}=10).
	p := gen.PaperFigure1Problem()
	opt, err := solve(p, "exact", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Profit != 10 {
		t.Fatalf("optimum %g want 10 ({B,C})", opt.Profit)
	}
	res, err := solve(p, "arbitrary", Options{Epsilon: 0.25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Solution(p, res.Selected); err != nil {
		t.Fatal(err)
	}
}

func TestTraceStepsBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 2, Demands: 15, Unit: true}, rng)
	res, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: 3, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Steps() == 0 {
		t.Fatal("no steps recorded")
	}
	if len(res.Trace.Events) == 0 {
		t.Fatal("no raise events recorded")
	}
	// Every raise's δ must be positive: raised instances were unsatisfied.
	for _, ev := range res.Trace.Events {
		if ev.Delta <= 0 {
			t.Fatalf("non-positive δ=%g at event %+v", ev.Delta, ev)
		}
	}
}

func TestKindChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tp := gen.TreeProblem(gen.TreeConfig{N: 8, Trees: 1, Demands: 3, Unit: true}, rng)
	lpb := gen.LineProblem(gen.LineConfig{Slots: 10, Resources: 1, Demands: 3, Unit: true}, rng)
	if _, err := solve(lpb, "tree-unit", Options{}); err == nil {
		t.Fatal("TreeUnit accepted line problem")
	}
	if _, err := solve(tp, "line-unit", Options{}); err == nil {
		t.Fatal("LineUnit accepted tree problem")
	}
	if _, err := solve(tp, "ps", Options{}); err == nil {
		t.Fatal("PS baseline accepted tree problem")
	}
	nonUnit := gen.TreeProblem(gen.TreeConfig{N: 8, Trees: 1, Demands: 3, HMin: 0.3, HMax: 0.4}, rng)
	if _, err := solve(nonUnit, "tree-unit", Options{}); err == nil {
		t.Fatal("TreeUnit accepted non-unit heights")
	}
	if _, err := solve(nonUnit, "sequential", Options{}); err == nil {
		t.Fatal("Sequential accepted non-unit heights")
	}
}
