package mis

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/conflict"
	"treesched/internal/gen"
	"treesched/internal/model"
)

func buildGraphs(t testing.TB, seed int64) (*model.Model, *conflict.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := gen.TreeProblem(gen.TreeConfig{N: 25, Trees: 3, Demands: 20, Unit: true}, rng)
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, conflict.Build(m)
}

// everyInst lists m's instances ascending: the widest candidate list
// LubyCover accepts.
func everyInst(m *model.Model) []int32 {
	out := make([]int32, len(m.Insts))
	for i := range out {
		out[i] = int32(i)
	}
	return out
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
		_, g := buildGraphs(t, seed)
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
	m, g := buildGraphs(t, 3)
	active := make([]bool, g.N)
	for i := 0; i < g.N; i += 2 {
		active[i] = true
	}
	explicit, _ := LubyFunc(g.Adj, active, seeded(99))
	implicit, _ := new(Scratch).LubyCover(m, everyInst(m), active, seeded(99))
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
	sc := new(Scratch)
	for seed := int64(0); seed < 12; seed++ {
		m, g := buildGraphs(t, seed)
		rng := rand.New(rand.NewSource(seed))
		active := make([]bool, g.N)
		for i := range active {
			active[i] = rng.Intn(4) > 0
		}
		s1, p1 := sc.LubyFunc(g.Adj, active, seeded(1234+seed))
		s1 = slices.Clone(s1)
		s2, p2 := sc.LubyCover(m, everyInst(m), active, seeded(1234+seed))
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

// TestLubyCoverSeededFromCandidates calls LubyCover as Phase1 does: on
// one Scratch, with candidate lists that are strict subsets of the
// instances but supersets of the active set, so the states it leaves
// outside each call's candidates are stale from earlier calls (and from
// explicit runs on the same Scratch). Every call must still equal the
// explicit routine on a fresh scratch.
func TestLubyCoverSeededFromCandidates(t *testing.T) {
	sc := new(Scratch)
	for seed := int64(0); seed < 6; seed++ {
		m, g := buildGraphs(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for call := 0; call < 20; call++ {
			var cands []int32
			active := make([]bool, g.N)
			for i := int32(0); int(i) < g.N; i++ {
				if rng.Intn(3) > 0 {
					cands = append(cands, i)
					active[i] = rng.Intn(3) > 0
				}
			}
			prio := seeded(seed*100 + int64(call))
			want, wantPhases := LubyFunc(g.Adj, active, prio)
			got, gotPhases := sc.LubyCover(m, cands, active, prio)
			if gotPhases != wantPhases || !slices.Equal(got, want) {
				t.Fatalf("seed %d call %d: LubyCover %v in %d phases, explicit %v in %d", seed, call, got, gotPhases, want, wantPhases)
			}
			if call%5 == 0 {
				sc.LubyFunc(g.Adj, allActive(g.N), prio)
			}
		}
	}
}

func TestEmptyActiveSet(t *testing.T) {
	m, g := buildGraphs(t, 6)
	active := make([]bool, g.N)
	sc := new(Scratch)
	if set, phases := sc.LubyFunc(g.Adj, active, seeded(1)); len(set) != 0 || phases != 0 {
		t.Fatal("empty active set should need 0 phases")
	}
	if set, phases := sc.LubyCover(m, everyInst(m), active, seeded(1)); len(set) != 0 || phases != 0 {
		t.Fatal("implicit: empty active set should need 0 phases")
	}
}

func TestVerifierCatchesViolations(t *testing.T) {
	_, g := buildGraphs(t, 7)
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
		m, g := buildGraphs(t, seed+100)
		active := allActive(g.N)
		sc := new(Scratch)
		_, explicit := sc.LubyFunc(g.Adj, active, seeded(seed))
		_, implicit := sc.LubyCover(m, everyInst(m), active, seeded(seed))
		if explicit > 40 || implicit > 40 {
			t.Fatalf("seed %d: %d and %d phases on %d vertices", seed, explicit, implicit, g.N)
		}
	}
}

func BenchmarkLubyExplicit(b *testing.B) {
	_, g := buildGraphs(b, 1)
	active := allActive(g.N)
	sc := new(Scratch)
	seed := int64(0)
	for b.Loop() {
		seed++
		sc.LubyFunc(g.Adj, active, seeded(seed))
	}
}

func BenchmarkLubyCover(b *testing.B) {
	m, _ := buildGraphs(b, 1)
	active := allActive(len(m.Insts))
	cands := everyInst(m)
	sc := new(Scratch)
	seed := int64(0)
	for b.Loop() {
		seed++
		sc.LubyCover(m, cands, active, seeded(seed))
	}
}

// TestLubyCoverStampGenerationWraps runs LubyCover on a scratch whose
// clique-stamp generation is at its maximum, with every clique stamped
// with the value the counter would wrap to, as a stamp written 2³²
// generations earlier would be, and naming as its minimum an inactive
// vertex whose stale priority beats every live one. The call must still
// equal the explicit routine: a stale stamp matching a live generation
// would keep that minimum, so no vertex would win the phase.
func TestLubyCoverStampGenerationWraps(t *testing.T) {
	m, g := buildGraphs(t, 4)
	sc := new(Scratch)
	active := allActive(g.N)
	active[0] = false
	sc.LubyCover(m, everyInst(m), active, seeded(1))
	for k := range sc.cliqueStamp {
		sc.cliqueStamp[k], sc.top1[k] = math.MinInt32, 0
	}
	sc.prio[0] = -1
	sc.cliqueGen = math.MaxInt32
	want, wantPhases := LubyFunc(g.Adj, active, seeded(2))
	got, gotPhases := sc.LubyCover(m, everyInst(m), active, seeded(2))
	if gotPhases != wantPhases || !slices.Equal(got, want) {
		t.Fatalf("LubyCover across the wrap: %v in %d phases, explicit %v in %d", got, gotPhases, want, wantPhases)
	}
}
