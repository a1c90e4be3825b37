package layered_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/instance"
	"treesched/internal/model"
	"treesched/internal/treedecomp"
)

// The layered rows are checked where the shipped code writes them: in
// the row table model.Build assembles from TreeRow, LineGroup and LinePi.

// verifyLayering brute-force checks the layering property over all
// instance pairs of m: for any overlapping d1 ∈ Gi, d2 ∈ Gj with i ≤ j,
// path(d2) must include a critical edge of d1. Paths come from
// Problem.PathEdges, not from the model's own rows. O(|D|² · path
// length).
func verifyLayering(m *model.Model) error {
	for i := range m.Insts {
		pi := m.Pi.Row(int32(i))
		for j := range m.Insts {
			if i == j || m.Group[i] > m.Group[j] || !m.P.Overlap(m.Insts[i], m.Insts[j]) {
				continue
			}
			path := m.P.PathEdges(m.Insts[j])
			if !slices.ContainsFunc(pi, func(e int32) bool { return slices.Contains(path, e) }) {
				return fmt.Errorf("overlapping d%d (group %d) and d%d (group %d): path(d%d) misses π(d%d)=%v",
					i, m.Group[i], j, m.Group[j], j, i, pi)
			}
		}
	}
	return nil
}

func build(t *testing.T, p *instance.Problem, opts model.Options) *model.Model {
	t.Helper()
	m, err := model.Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomTreeProblem builds a random multi-tree unit-height problem.
func randomTreeProblem(rng *rand.Rand, n, r, m int) *instance.Problem {
	p := &instance.Problem{Kind: instance.KindTree, NumVertices: n}
	for q := 0; q < r; q++ {
		p.Trees = append(p.Trees, graph.RandomTree(n, rng))
	}
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		for v == u {
			v = rng.Intn(n)
		}
		var access []int
		for q := 0; q < r; q++ {
			if rng.Intn(2) == 0 {
				access = append(access, q)
			}
		}
		if len(access) == 0 {
			access = []int{rng.Intn(r)}
		}
		p.Demands = append(p.Demands, instance.Demand{
			ID: i, U: u, V: v, Profit: 1 + rng.Float64()*9, Height: 1, Access: access,
		})
	}
	return p
}

func randomLineProblem(rng *rand.Rand, slots, r, m int) *instance.Problem {
	p := &instance.Problem{Kind: instance.KindLine, NumSlots: slots, NumResources: r}
	for i := 0; i < m; i++ {
		rt := rng.Intn(slots - 1)
		dl := rt + rng.Intn(slots-rt)
		rho := 1 + rng.Intn(dl-rt+1)
		var access []int
		for q := 0; q < r; q++ {
			if rng.Intn(2) == 0 {
				access = append(access, q)
			}
		}
		if len(access) == 0 {
			access = []int{rng.Intn(r)}
		}
		p.Demands = append(p.Demands, instance.Demand{
			ID: i, Release: rt, Deadline: dl, ProcTime: rho,
			Profit: 1 + rng.Float64()*9, Height: 1, Access: access,
		})
	}
	return p
}

func TestTreeLayeringPropertyIdeal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		p := randomTreeProblem(rng, 4+rng.Intn(40), 1+rng.Intn(3), 2+rng.Intn(25))
		m := build(t, p, model.Options{DecompKind: treedecomp.KindIdeal})
		if m.Delta > 6 {
			t.Fatalf("trial %d: ∆=%d > 6 with ideal decomposition", trial, m.Delta)
		}
		if err := verifyLayering(m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestTreeLayeringPropertyAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, kind := range []treedecomp.Kind{treedecomp.KindRootFixing, treedecomp.KindBalancing, treedecomp.KindIdeal} {
		for trial := 0; trial < 6; trial++ {
			p := randomTreeProblem(rng, 4+rng.Intn(30), 1+rng.Intn(2), 2+rng.Intn(20))
			// Serial and sharded assembly write the same rows; check both.
			for _, workers := range []int{1, 3} {
				m := build(t, p, model.Options{DecompKind: kind, Workers: workers})
				// Lemma 4.2 bound: ∆ ≤ 2(θ+1).
				theta := 0
				for _, d := range m.Decomps {
					theta = max(theta, d.PivotSize())
				}
				if m.Delta > 2*(theta+1) {
					t.Fatalf("%v: ∆=%d > 2(θ+1)=%d", kind, m.Delta, 2*(theta+1))
				}
				if err := verifyLayering(m); err != nil {
					t.Fatalf("%v trial %d workers %d: %v", kind, trial, workers, err)
				}
			}
		}
	}
}

func TestLineLayeringProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		p := randomLineProblem(rng, 8+rng.Intn(50), 1+rng.Intn(3), 2+rng.Intn(15))
		m := build(t, p, model.Options{})
		if m.Delta > 3 {
			t.Fatalf("trial %d: line ∆=%d > 3", trial, m.Delta)
		}
		if err := verifyLayering(m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLineGroupsDoubleByLength(t *testing.T) {
	p := &instance.Problem{Kind: instance.KindLine, NumSlots: 64, NumResources: 1}
	lengths := []int{1, 1, 2, 3, 4, 7, 8, 16, 33}
	for i, l := range lengths {
		p.Demands = append(p.Demands, instance.Demand{
			ID: i, Release: 0, Deadline: l - 1, ProcTime: l, Profit: 1, Height: 1, Access: []int{0},
		})
	}
	m := build(t, p, model.Options{})
	wantGroups := []int32{1, 1, 2, 2, 3, 3, 4, 5, 6}
	for i, want := range wantGroups {
		if m.Group[i] != want {
			t.Fatalf("length %d: group %d want %d", lengths[i], m.Group[i], want)
		}
	}
}

// TestKindMismatchErrors: the build refuses rows it cannot compute —
// Appendix-A critical sets on a line problem, and tree decompositions
// that do not match the trees.
func TestKindMismatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tp := randomTreeProblem(rng, 10, 1, 3)
	lp := randomLineProblem(rng, 10, 1, 3)
	if _, err := model.Build(lp, model.Options{CaptureWingsPi: true}); err == nil {
		t.Fatal("Build accepted Appendix-A critical sets on a line problem")
	}
	dec := treedecomp.Build(tp.Trees[0], treedecomp.KindIdeal)
	for _, decomps := range [][]*treedecomp.Decomposition{{}, {dec, dec}} {
		if _, err := model.Build(tp, model.Options{Decomps: decomps}); err == nil {
			t.Fatalf("Build accepted %d decompositions for 1 tree", len(decomps))
		}
	}
}

func TestSingleSlotInstancesCriticalSet(t *testing.T) {
	p := &instance.Problem{Kind: instance.KindLine, NumSlots: 4, NumResources: 1,
		Demands: []instance.Demand{
			{ID: 0, Release: 1, Deadline: 1, ProcTime: 1, Profit: 1, Height: 1, Access: []int{0}},
			{ID: 1, Release: 0, Deadline: 3, ProcTime: 2, Profit: 1, Height: 1, Access: []int{0}},
		}}
	m := build(t, p, model.Options{})
	if got := m.Pi.Row(0); len(got) != 1 {
		t.Fatalf("length-1 instance should have |π|=1, got %v", got)
	}
	if got := m.Pi.Row(1); len(got) != 2 {
		t.Fatalf("length-2 instance should have |π|=2 (start=mid), got %v", got)
	}
}
