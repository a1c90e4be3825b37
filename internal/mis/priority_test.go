package mis

import (
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/conflict"
	"treesched/internal/gen"
	"treesched/internal/model"
)

func TestPriorityDeterministicAndUniformish(t *testing.T) {
	a := Priority(1, 5, 10, 2)
	b := Priority(1, 5, 10, 2)
	if a != b {
		t.Fatal("Priority not deterministic")
	}
	if a < 0 || a >= 1 {
		t.Fatalf("Priority %g outside [0,1)", a)
	}
	// Changing any coordinate changes the value (with overwhelming
	// probability for these fixed inputs).
	if Priority(2, 5, 10, 2) == a || Priority(1, 6, 10, 2) == a ||
		Priority(1, 5, 11, 2) == a || Priority(1, 5, 10, 3) == a {
		t.Fatal("Priority collision across coordinates")
	}
	// Crude uniformity check: mean of many draws near 0.5.
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += Priority(7, int32(i), 3, 1)
	}
	mean := sum / float64(n)
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("mean %g far from 0.5", mean)
	}
}

func TestLubyFuncExplicitImplicitAgree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.TreeProblem(gen.TreeConfig{N: 25, Trees: 2, Demands: 18, Unit: true}, rng)
		m, err := model.Build(p, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := conflict.Build(m)
		active := make([]bool, g.N)
		for i := range active {
			active[i] = rng.Intn(5) > 0
		}
		prio := func(i int32, phase int) float64 {
			return Priority(uint64(seed), i, 9, phase)
		}
		s1, p1 := LubyFunc(g.Adj, active, prio)
		s2, p2 := new(Scratch).LubyCover(m, everyInst(m), active, prio)
		if p1 != p2 || len(s1) != len(s2) {
			t.Fatalf("seed %d: phases %d/%d sizes %d/%d", seed, p1, p2, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("seed %d: sets differ at %d", seed, i)
			}
		}
		if err := VerifyMaximalIndependent(g, active, s1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// referenceLuby is a direct transcription of Luby's algorithm: in each
// phase every undecided vertex takes its priority from that phase's row of
// table, joins when it beats each undecided neighbor by (priority, index),
// and the winners' neighbors drop out. The set is returned ascending.
func referenceLuby(adj [][]int32, active []bool, table func(phase int) []float64) ([]int32, int) {
	undecided := slices.Clone(active)
	var set []int32
	phases := 0
	for slices.Contains(undecided, true) {
		phases++
		p := table(phases)
		var winners []int32
		for i := range adj {
			if !undecided[i] {
				continue
			}
			best := true
			for _, j := range adj[i] {
				if undecided[j] && (p[j] < p[i] || (p[j] == p[i] && int(j) < i)) {
					best = false
					break
				}
			}
			if best {
				winners = append(winners, int32(i))
			}
		}
		for _, i := range winners {
			undecided[i] = false
			set = append(set, i)
		}
		for _, i := range winners {
			for _, j := range adj[i] {
				undecided[j] = false
			}
		}
	}
	slices.Sort(set)
	return set, phases
}

func TestLubyFuncMatchesRNGVariantSemantics(t *testing.T) {
	// LubyFunc with priorities looked up in an rng-drawn table must elect
	// the same sets, in the same phases, as the reference run on that
	// table (both break ties by (priority, index)).
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(3 + seed))
		p := gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 2, Demands: 15, Unit: true}, rng)
		m, err := model.Build(p, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := conflict.Build(m)
		active := make([]bool, g.N)
		for i := range active {
			active[i] = rng.Intn(6) > 0
		}
		var rows [][]float64
		table := func(phase int) []float64 {
			for len(rows) < phase {
				row := make([]float64, g.N)
				for i := range row {
					row[i] = rng.Float64()
				}
				rows = append(rows, row)
			}
			return rows[phase-1]
		}
		want, wantPhases := referenceLuby(g.Adj, active, table)
		got, gotPhases := LubyFunc(g.Adj, active, func(i int32, phase int) float64 {
			return table(phase)[i]
		})
		if gotPhases != wantPhases || !slices.Equal(got, want) {
			t.Fatalf("seed %d: LubyFunc %v in %d phases, reference %v in %d", seed, got, gotPhases, want, wantPhases)
		}
		if len(got) == 0 && slices.Contains(active, true) {
			t.Fatalf("seed %d: empty MIS on a non-empty active set", seed)
		}
		if err := VerifyMaximalIndependent(g, active, got); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
