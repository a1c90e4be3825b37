// Package mis implements Luby's randomized maximal independent set
// algorithm [Luby 1986], the MIS subroutine named by the paper for its
// distributed iterations (§5). The solvers run one pair of equivalent
// executions, on a reusable Scratch with priorities drawn through the
// deterministic Priority function:
//
//   - Scratch.LubyFunc: over an explicit conflict graph;
//   - Scratch.LubyFuncImplicit: over a clique cover, aggregating
//     priorities per clique so each phase costs O(Σ|clique|) instead of
//     O(edges).
//
// With the same priority function they return identical sets, and the
// distributed protocol's Luby rounds draw the same priorities — the
// properties the tests rely on.
package mis

import (
	"fmt"

	"treesched/internal/conflict"
)

// state tracks per-vertex progress within one MIS computation.
type state uint8

const (
	undecided state = iota
	inMIS
	excluded
	inactive
)

// VerifyMaximalIndependent checks that set is independent in g and maximal
// within the active subgraph.
func VerifyMaximalIndependent(g *conflict.Graph, active []bool, set []int32) error {
	in := make([]bool, g.N)
	for _, i := range set {
		if !active[i] {
			return fmt.Errorf("mis: vertex %d in set but not active", i)
		}
		in[i] = true
	}
	for _, i := range set {
		for _, j := range g.Adj[i] {
			if in[j] {
				return fmt.Errorf("mis: adjacent vertices %d,%d both in set", i, j)
			}
		}
	}
	for i := int32(0); int(i) < g.N; i++ {
		if !active[i] || in[i] {
			continue
		}
		dominated := false
		for _, j := range g.Adj[i] {
			if in[j] {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("mis: active vertex %d neither in set nor dominated", i)
		}
	}
	return nil
}
