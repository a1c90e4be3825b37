package core

import (
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/graph"
	"treesched/internal/instance"
	"treesched/internal/verify"
)

func TestEmptyDemandSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := &instance.Problem{
		Kind:        instance.KindTree,
		NumVertices: 5,
		Trees:       []*graph.Tree{graph.RandomTree(5, rng)},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (*Result, error){
		"tree-unit":  func() (*Result, error) { return solve(p, "tree-unit", Options{}) },
		"sequential": func() (*Result, error) { return solve(p, "sequential", Options{}) },
		"arbitrary":  func() (*Result, error) { return solve(p, "arbitrary", Options{}) },
		"exact":      func() (*Result, error) { return solve(p, "exact", Options{}) },
		"greedy":     func() (*Result, error) { return solve(p, "greedy", Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Profit != 0 || len(res.Selected) != 0 {
			t.Fatalf("%s: non-empty result on empty problem", name)
		}
	}
	d, err := solveDist(p, "dist-unit", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Profit != 0 {
		t.Fatal("distributed: non-empty result on empty problem")
	}
}

func TestAllDemandsIdentical(t *testing.T) {
	// m copies of the same demand on one tree: exactly one can win.
	rng := rand.New(rand.NewSource(2))
	tr := graph.RandomTree(10, rng)
	p := &instance.Problem{Kind: instance.KindTree, NumVertices: 10, Trees: []*graph.Tree{tr}}
	for i := 0; i < 8; i++ {
		p.Demands = append(p.Demands, instance.Demand{
			ID: i, U: 0, V: 9, Profit: 1, Height: 1, Access: []int{0},
		})
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("identical overlapping demands: %d selected, want 1", len(res.Selected))
	}
	opt, err := solve(p, "exact", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Profit != 1 {
		t.Fatalf("optimum %g want 1", opt.Profit)
	}
}

func TestSpanningDemandOnPathTree(t *testing.T) {
	// One demand spanning the entire path plus per-edge demands: the
	// optimum picks the per-edge demands when they outweigh the spanner.
	n := 9
	p := &instance.Problem{Kind: instance.KindTree, NumVertices: n, Trees: []*graph.Tree{graph.NewPath(n)}}
	p.Demands = append(p.Demands, instance.Demand{ID: 0, U: 0, V: n - 1, Profit: 3, Height: 1, Access: []int{0}})
	id := 1
	for v := 0; v+1 < n; v += 2 {
		p.Demands = append(p.Demands, instance.Demand{ID: id, U: v, V: v + 1, Profit: 1, Height: 1, Access: []int{0}})
		id++
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	opt, err := solve(p, "exact", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Profit != 4 { // four disjoint unit-profit demands beat the 3-profit spanner
		t.Fatalf("optimum %g want 4", opt.Profit)
	}
	res, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Profit/res.Profit > res.Bound {
		t.Fatalf("ratio %.3f above bound", opt.Profit/res.Profit)
	}
}

func TestTwoVertexTree(t *testing.T) {
	p := &instance.Problem{Kind: instance.KindTree, NumVertices: 2, Trees: []*graph.Tree{graph.NewPath(2)},
		Demands: []instance.Demand{
			{ID: 0, U: 0, V: 1, Profit: 2, Height: 1, Access: []int{0}},
			{ID: 1, U: 1, V: 0, Profit: 5, Height: 1, Access: []int{0}},
		}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 || res.Selected[0].Demand != 1 {
		t.Fatalf("want the profit-5 demand alone, got %v", res.Selected)
	}
	seq, err := solve(p, "sequential", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Profit != 5 {
		t.Fatalf("sequential picked %g, want 5", seq.Profit)
	}
}

func TestSingleSlotLineProblem(t *testing.T) {
	p := &instance.Problem{Kind: instance.KindLine, NumSlots: 1, NumResources: 2,
		Demands: []instance.Demand{
			{ID: 0, Release: 0, Deadline: 0, ProcTime: 1, Profit: 1, Height: 1, Access: []int{0, 1}},
			{ID: 1, Release: 0, Deadline: 0, ProcTime: 1, Profit: 2, Height: 1, Access: []int{0}},
		}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := solve(p, "line-unit", Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Both demands fit: demand 1 on resource 0, demand 0 on resource 1.
	if res.Profit != 3 {
		t.Fatalf("profit %g want 3 (both demands placeable)", res.Profit)
	}
	if err := verify.Solution(p, res.Selected); err != nil {
		t.Fatal(err)
	}
}

func TestWideOnlyArbitraryEqualsUnitBehavior(t *testing.T) {
	// All heights > 1/2: Arbitrary must reduce to the wide (unit-rule)
	// path alone.
	rng := rand.New(rand.NewSource(5))
	p := gen.TreeProblem(gen.TreeConfig{N: 14, Trees: 2, Demands: 8, HMin: 0.6, HMax: 1.0}, rng)
	res, err := solve(p, "arbitrary", Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 1 || res.Parts[0].Name != "wide" {
		t.Fatalf("wide-only input produced parts %v", len(res.Parts))
	}
	if err := verify.Solution(p, res.Selected); err != nil {
		t.Fatal(err)
	}
}

func TestNarrowOnlyArbitrarySinglePart(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := gen.TreeProblem(gen.TreeConfig{N: 14, Trees: 2, Demands: 8, HMin: 0.1, HMax: 0.45}, rng)
	res, err := solve(p, "arbitrary", Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 1 || res.Parts[0].Name != "narrow" {
		t.Fatal("narrow-only input should produce exactly the narrow part")
	}
}
