package treedecomp

import (
	"fmt"
)

// Verify checks, by direct (brute-force) examination, that d satisfies both
// defining properties of a tree decomposition (§4.1):
//
//	(i)  for any pair of vertices u,v, the minimum-H-depth vertex on the
//	     T-path between them is unique and equals LCA_H(u,v); and
//	(ii) for every node z, C(z) induces a connected subtree of T.
//
// It is O(n² · path length), for tests only.
func Verify(d *Decomposition) error {
	t := d.T
	n := t.N()
	// Property (ii): components connected.
	for z := 0; z < n; z++ {
		comp := d.Component(z)
		in := make(map[int32]bool, len(comp))
		for _, v := range comp {
			in[v] = true
		}
		// BFS within comp from z must reach all of comp.
		seen := map[int32]bool{int32(z): true}
		queue := []int32{int32(z)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range t.Adj(int(v)) {
				if in[w] && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if len(seen) != len(comp) {
			return fmt.Errorf("component C(%d) disconnected: %d of %d reachable", z, len(seen), len(comp))
		}
		// Pivot set sanity: χ(z) must be exactly the outside neighbors.
		want := map[int32]bool{}
		for _, v := range comp {
			for _, w := range t.Adj(int(v)) {
				if !in[w] {
					want[w] = true
				}
			}
		}
		got := d.PivotSet(z)
		if len(got) != len(want) {
			return fmt.Errorf("pivot set of %d has %d entries, want %d", z, len(got), len(want))
		}
		for _, x := range got {
			if !want[x] {
				return fmt.Errorf("pivot set of %d contains non-neighbor %d", z, x)
			}
		}
	}
	// Property (i): min-depth node on every path is unique and is the H-LCA.
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			verts := t.PathVertices(u, v)
			best, count := -1, 0
			for _, x := range verts {
				dep := d.Depth(int(x))
				if best < 0 || dep < d.Depth(best) {
					best, count = int(x), 1
				} else if dep == d.Depth(best) {
					count++
				}
			}
			if count != 1 {
				return fmt.Errorf("path (%d,%d): %d vertices at min depth", u, v, count)
			}
			if l := d.LCA(u, v); l != best {
				return fmt.Errorf("path (%d,%d): min-depth vertex %d != LCA_H %d", u, v, best, l)
			}
		}
	}
	return nil
}
