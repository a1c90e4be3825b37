package conflict

import (
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/model"
)

func buildModel(t testing.TB, seed int64, tree bool) *model.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var m *model.Model
	var err error
	if tree {
		p := gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 3, Demands: 15, Unit: true}, rng)
		m, err = model.Build(p, model.Options{})
	} else {
		p := gen.LineProblem(gen.LineConfig{Slots: 30, Resources: 2, Demands: 12, Unit: true}, rng)
		m, err = model.Build(p, model.Options{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExplicitMatchesPairwisePredicate(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, tree := range []bool{true, false} {
			m := buildModel(t, seed, tree)
			g := Build(m)
			if err := g.VerifyAgainstModel(m); err != nil {
				t.Fatalf("seed %d tree=%v: %v", seed, tree, err)
			}
		}
	}
}

// TestImplicitCoversAllConflicts pins the clique cover mis.LubyCover
// reads in place: the model's InstsOf rows (one clique per demand) and
// EdgeInsts rows (one per edge) cover exactly the conflict relation, and
// each instance lies in its demand's row and in the row of every edge of
// its path — the cliques LubyCover walks for it.
func TestImplicitCoversAllConflicts(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		m := buildModel(t, seed, true)
		n := len(m.Insts)
		// Union of cliques = conflict relation.
		adj := make([]map[int32]bool, n)
		for i := range adj {
			adj[i] = map[int32]bool{}
		}
		var cliques [][]int32
		for a := int32(0); int(a) < m.InstsOf.Rows(); a++ {
			cliques = append(cliques, m.InstsOf.Row(a))
		}
		for e := int32(0); int(e) < m.EdgeInsts.Rows(); e++ {
			cliques = append(cliques, m.EdgeInsts.Row(e))
		}
		for _, members := range cliques {
			for _, i := range members {
				for _, j := range members {
					if i != j {
						adj[i][j] = true
					}
				}
			}
		}
		for i := int32(0); int(i) < n; i++ {
			for j := int32(0); int(j) < n; j++ {
				if i == j {
					continue
				}
				if adj[i][j] != m.Conflict(i, j) {
					t.Fatalf("seed %d: clique cover edge (%d,%d)=%v, model says %v",
						seed, i, j, adj[i][j], m.Conflict(i, j))
				}
			}
		}
		// The cliques LubyCover walks for i must contain i.
		for i := int32(0); int(i) < n; i++ {
			if !slices.Contains(m.InstsOf.Row(m.Insts[i].Demand), i) {
				t.Fatalf("instance %d missing from its demand's clique", i)
			}
			for _, e := range m.Paths.Row(i) {
				if !slices.Contains(m.EdgeInsts.Row(e), i) {
					t.Fatalf("instance %d missing from the clique of edge %d on its path", i, e)
				}
			}
		}
	}
}

func TestDegreeAndEmptyGraph(t *testing.T) {
	m := buildModel(t, 7, true)
	g := Build(m)
	for i := int32(0); int(i) < g.N; i++ {
		if g.Degree(i) != len(g.Adj[i]) {
			t.Fatal("Degree mismatch")
		}
	}
}

func BenchmarkBuildExplicit(b *testing.B) {
	m := buildModel(b, 1, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(m)
	}
}
