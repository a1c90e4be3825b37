// Package conflict builds the explicit conflict graph over demand
// instances (§2): two instances conflict when they belong to the same
// demand or when they are scheduled on the same network and their paths
// share an edge.
//
// The conflict graph is exactly the graph on which the distributed
// algorithm computes maximal independent sets (§5, "Distributed
// Implementation"). The solvers never materialize it: mis.LubyCover runs
// on the compiled model's clique cover (one clique per demand, one per
// edge) in place. The explicit Graph, possibly quadratic in clique sizes,
// is the oracle the cover routine is held to and what schedtool's stats
// count.
package conflict

import (
	"fmt"

	"treesched/internal/model"
)

// Graph is an explicit conflict graph over instances 0..N-1.
type Graph struct {
	N   int
	Adj [][]int32
}

// Build materializes the explicit conflict graph from the model's own
// clique cover: instance i's neighbors are the other members of its
// demand's InstsOf row and of the EdgeInsts row of every edge on its
// path. Instances active on a common edge form cliques, so the output can
// be quadratic in clique sizes.
func Build(m *model.Model) *Graph {
	n := len(m.Insts)
	g := &Graph{N: n, Adj: make([][]int32, n)}
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for i := int32(0); int(i) < n; i++ {
		seen[i] = i
		add := func(clique []int32) {
			for _, j := range clique {
				if seen[j] != i {
					seen[j] = i
					g.Adj[i] = append(g.Adj[i], j)
				}
			}
		}
		add(m.InstsOf.Row(m.Insts[i].Demand))
		for _, e := range m.Paths.Row(i) {
			add(m.EdgeInsts.Row(e))
		}
	}
	return g
}

// Degree returns the degree of instance i.
func (g *Graph) Degree(i int32) int { return len(g.Adj[i]) }

// VerifyAgainstModel cross-checks the explicit graph against the model's
// pairwise Conflict predicate, using a reusable neighbor-stamp slice
// instead of per-vertex hash sets. O(N²); for tests.
func (g *Graph) VerifyAgainstModel(m *model.Model) error {
	mark := make([]int32, g.N)
	for i := range mark {
		mark[i] = -1
	}
	contains := func(u, v int32) bool {
		for _, w := range g.Adj[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	for i := int32(0); int(i) < g.N; i++ {
		for _, j := range g.Adj[i] {
			mark[j] = i
		}
		for j := int32(0); int(j) < g.N; j++ {
			if i == j {
				continue
			}
			has := mark[j] == i
			if want := m.Conflict(i, j); has != want {
				return fmt.Errorf("conflict: edge (%d,%d)=%v want %v", i, j, has, want)
			}
			// One-directional symmetry probe: a missing reverse edge is
			// caught here, a missing forward edge at iteration (j,i).
			if has && !contains(j, i) {
				return fmt.Errorf("conflict: asymmetric edge (%d,%d)", i, j)
			}
		}
	}
	return nil
}
