// Package mis implements Luby's randomized maximal independent set
// algorithm [Luby 1986], the MIS subroutine named by the paper for its
// distributed iterations (§5). Priorities are drawn through the
// deterministic Priority function, on a reusable Scratch:
//
//   - Scratch.LubyCover: the solvers' routine, over the compiled model's
//     own clique cover (one clique per demand, one per edge), aggregating
//     priorities per clique so each phase costs O(Σ|clique|) of the
//     undecided frontier instead of O(edges);
//   - Scratch.LubyFunc: over an explicit conflict graph, kept as the
//     oracle LubyCover is held to.
//
// With the same priority function they return identical sets, and the
// distributed protocol's Luby rounds draw the same priorities — the
// properties the tests rely on.
package mis

import (
	"fmt"

	"treesched/internal/conflict"
)

// state tracks per-vertex progress within one MIS computation. inactive
// is the zero state, so a freshly grown Scratch starts with every vertex
// outside the computation.
type state uint8

const (
	inactive state = iota
	undecided
	inMIS
	excluded
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
