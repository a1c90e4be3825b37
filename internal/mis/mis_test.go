package mis

import (
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/conflict"
	"treesched/internal/gen"
	"treesched/internal/model"
)

func buildGraphs(t testing.TB, seed int64) (*model.Model, *conflict.Graph, *conflict.Implicit) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := gen.TreeProblem(gen.TreeConfig{N: 25, Trees: 3, Demands: 20, Unit: true}, rng)
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, conflict.Build(m), conflict.BuildImplicit(m)
}

// seeded returns a priority function for one Luby run: the solvers'
// Priority at a fixed step, under seed.
func seeded(seed int64) func(i int32, phase int) float64 {
	return func(i int32, phase int) float64 { return Priority(uint64(seed), i, 1, phase) }
}

func allActive(n int) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	return active
}

func TestLubyProducesMaximalIndependentSets(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		_, g, _ := buildGraphs(t, seed)
		active := allActive(g.N)
		set, phases := LubyFunc(g.Adj, active, seeded(seed*31))
		if phases < 1 || len(set) == 0 {
			t.Fatalf("seed %d: degenerate MIS: %d phases, %d vertices", seed, phases, len(set))
		}
		if err := VerifyMaximalIndependent(g, active, set); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLubyRespectsActiveSubset(t *testing.T) {
	_, g, im := buildGraphs(t, 3)
	active := make([]bool, g.N)
	for i := 0; i < g.N; i += 2 {
		active[i] = true
	}
	explicit, _ := LubyFunc(g.Adj, active, seeded(99))
	implicit, _ := LubyFuncImplicit(im, active, seeded(99))
	for _, set := range [][]int32{explicit, implicit} {
		for _, i := range set {
			if i%2 != 0 {
				t.Fatalf("inactive vertex %d selected", i)
			}
		}
		if err := VerifyMaximalIndependent(g, active, set); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExplicitAndImplicitLubyAgree(t *testing.T) {
	// One Scratch serves both routines in turn, as in the solvers, so the
	// explicit set is copied out before the implicit run overwrites it.
	sc := NewScratch(0, 0)
	for seed := int64(0); seed < 12; seed++ {
		_, g, im := buildGraphs(t, seed)
		rng := rand.New(rand.NewSource(seed))
		active := make([]bool, g.N)
		for i := range active {
			active[i] = rng.Intn(4) > 0
		}
		s1, p1 := sc.LubyFunc(g.Adj, active, seeded(1234+seed))
		s1 = slices.Clone(s1)
		s2, p2 := sc.LubyFuncImplicit(im, active, seeded(1234+seed))
		if p1 != p2 {
			t.Fatalf("seed %d: phases %d vs %d", seed, p1, p2)
		}
		if !slices.Equal(s1, s2) {
			t.Fatalf("seed %d: sets %v vs %v", seed, s1, s2)
		}
		if err := VerifyMaximalIndependent(g, active, s1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestEmptyActiveSet(t *testing.T) {
	_, g, im := buildGraphs(t, 6)
	active := make([]bool, g.N)
	sc := NewScratch(g.N, im.NumCliques())
	if set, phases := sc.LubyFunc(g.Adj, active, seeded(1)); len(set) != 0 || phases != 0 {
		t.Fatal("empty active set should need 0 phases")
	}
	if set, phases := sc.LubyFuncImplicit(im, active, seeded(1)); len(set) != 0 || phases != 0 {
		t.Fatal("implicit: empty active set should need 0 phases")
	}
}

func TestVerifierCatchesViolations(t *testing.T) {
	_, g, _ := buildGraphs(t, 7)
	active := allActive(g.N)
	// Non-maximal: empty set with non-empty active graph.
	if err := VerifyMaximalIndependent(g, active, nil); err == nil {
		t.Fatal("verifier accepted empty non-maximal set")
	}
	// Dependent: two adjacent vertices.
	var a int32 = -1
	for i := int32(0); int(i) < g.N; i++ {
		if len(g.Adj[i]) > 0 {
			a = i
			break
		}
	}
	if a >= 0 {
		b := g.Adj[a][0]
		if err := VerifyMaximalIndependent(g, active, []int32{a, b}); err == nil {
			t.Fatal("verifier accepted adjacent pair")
		}
	}
}

func TestLubyPhaseCountIsLogarithmicish(t *testing.T) {
	// Not a strict bound test — just guards against pathological phase
	// explosion: expected phases are O(log N) w.h.p., so 10 trials on a
	// ~60-vertex graph should never need 40 phases.
	for seed := int64(0); seed < 10; seed++ {
		_, g, im := buildGraphs(t, seed+100)
		active := allActive(g.N)
		sc := NewScratch(g.N, im.NumCliques())
		_, explicit := sc.LubyFunc(g.Adj, active, seeded(seed))
		_, implicit := sc.LubyFuncImplicit(im, active, seeded(seed))
		if explicit > 40 || implicit > 40 {
			t.Fatalf("seed %d: %d and %d phases on %d vertices", seed, explicit, implicit, g.N)
		}
	}
}

func BenchmarkLubyExplicit(b *testing.B) {
	_, g, _ := buildGraphs(b, 1)
	active := allActive(g.N)
	sc := NewScratch(g.N, 0)
	seed := int64(0)
	for b.Loop() {
		seed++
		sc.LubyFunc(g.Adj, active, seeded(seed))
	}
}

func BenchmarkLubyImplicit(b *testing.B) {
	_, _, im := buildGraphs(b, 1)
	active := allActive(im.N)
	sc := NewScratch(im.N, im.NumCliques())
	seed := int64(0)
	for b.Loop() {
		seed++
		sc.LubyFuncImplicit(im, active, seeded(seed))
	}
}
