// Package treedecomp implements the paper's tree-decompositions (§4):
// rooted trees H over the vertex set of a tree-network T such that
//
//	(i)  any demand instance passing through x and y also passes through
//	     LCA_H(x,y), and
//	(ii) for every node z, the set C(z) of z and its H-descendants induces
//	     a connected subtree (a "component") of T.
//
// Three constructions are provided, mirroring §4.2–4.3:
//
//   - RootFixing: pivot size θ=1, depth up to n.
//   - Balancing:  depth ≤ ⌈log n⌉+1, pivot size up to ⌈log n⌉.
//   - Ideal:      depth ≤ 2⌈log n⌉, pivot size θ=2 (Lemma 4.1) — the
//     paper's main decomposition, driving the ∆=6 layered decomposition.
package treedecomp

import (
	"fmt"

	"treesched/internal/graph"
)

// Kind names a decomposition construction.
type Kind int

const (
	// KindIdeal is the θ=2, depth≤2⌈log n⌉ decomposition of §4.3 — the
	// paper's main construction and the zero-value default.
	KindIdeal Kind = iota
	// KindRootFixing is the θ=1, depth≤n decomposition of §4.2.
	KindRootFixing
	// KindBalancing is the centroid decomposition of §4.2.
	KindBalancing
)

func (k Kind) String() string {
	switch k {
	case KindRootFixing:
		return "root-fixing"
	case KindBalancing:
		return "balancing"
	case KindIdeal:
		return "ideal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Decomposition is a tree decomposition H of a tree-network T. Node depths
// follow the paper's convention: the root has depth 1.
type Decomposition struct {
	T    *graph.Tree
	Kind Kind
	Root int

	parent   []int32 // parent in H; -1 at root
	depth    []int32 // 1-based depth in H
	children [][]int32
	up       [][]int32 // binary lifting over H
	logN     int
	tin      []int32 // Euler interval of the H-subtree, for ancestor tests
	tout     []int32
	pivots   [][]int32 // χ(z) = Γ[C(z)] per node
	maxDepth int
	maxPivot int
}

// finish derives all query structures from parent pointers.
func finish(t *graph.Tree, kind Kind, root int, parent []int32) *Decomposition {
	n := t.N()
	d := &Decomposition{T: t, Kind: kind, Root: root, parent: parent}
	d.children = make([][]int32, n)
	for v := 0; v < n; v++ {
		if p := parent[v]; p >= 0 {
			d.children[p] = append(d.children[p], int32(v))
		}
	}
	d.depth = make([]int32, n)
	d.tin = make([]int32, n)
	d.tout = make([]int32, n)
	// Iterative DFS over H computing depth and Euler intervals.
	type frame struct {
		v   int32
		idx int
	}
	stack := []frame{{int32(root), 0}}
	d.depth[root] = 1
	timer := int32(0)
	d.tin[root] = timer
	timer++
	visited := 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < len(d.children[f.v]) {
			c := d.children[f.v][f.idx]
			f.idx++
			d.depth[c] = d.depth[f.v] + 1
			d.tin[c] = timer
			timer++
			visited++
			stack = append(stack, frame{c, 0})
			continue
		}
		d.tout[f.v] = timer
		stack = stack[:len(stack)-1]
	}
	if visited != n {
		panic(fmt.Sprintf("treedecomp: H reaches %d of %d vertices", visited, n))
	}
	for v := 0; v < n; v++ {
		if int(d.depth[v]) > d.maxDepth {
			d.maxDepth = int(d.depth[v])
		}
	}
	d.buildLCA()
	d.buildPivots()
	return d
}

func (d *Decomposition) buildLCA() {
	n := d.T.N()
	logN := 1
	for 1<<logN < n {
		logN++
	}
	d.logN = logN
	d.up = make([][]int32, logN+1)
	d.up[0] = make([]int32, n)
	for v := 0; v < n; v++ {
		if d.parent[v] < 0 {
			d.up[0][v] = int32(v)
		} else {
			d.up[0][v] = d.parent[v]
		}
	}
	for k := 1; k <= logN; k++ {
		d.up[k] = make([]int32, n)
		prev := d.up[k-1]
		for v := 0; v < n; v++ {
			d.up[k][v] = prev[prev[v]]
		}
	}
}

// buildPivots computes χ(z) = Γ[C(z)] for every z, bottom-up: the
// neighborhood of C(z) is contained in N_T(z) ∪ ⋃_{c child} χ(c), filtered
// to vertices outside C(z).
func (d *Decomposition) buildPivots() {
	n := d.T.N()
	d.pivots = make([][]int32, n)
	// Process in decreasing tin order? Children have larger tin than the
	// parent in preorder, so iterating vertices by decreasing tin visits
	// children before parents.
	order := make([]int32, n)
	for v := 0; v < n; v++ {
		order[d.tin[v]] = int32(v)
	}
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		z := order[i]
		var piv []int32
		add := func(x int32) {
			if d.InComponent(int(z), int(x)) {
				return
			}
			if seen[x] == z {
				return
			}
			seen[x] = z
			piv = append(piv, x)
		}
		for _, w := range d.T.Adj(int(z)) {
			add(w)
		}
		for _, c := range d.children[z] {
			for _, x := range d.pivots[c] {
				add(x)
			}
		}
		d.pivots[z] = piv
		if len(piv) > d.maxPivot {
			d.maxPivot = len(piv)
		}
	}
}

// Parent returns the H-parent of v (-1 at the root).
func (d *Decomposition) Parent(v int) int { return int(d.parent[v]) }

// Depth returns the 1-based H-depth of v (root has depth 1).
func (d *Decomposition) Depth(v int) int { return int(d.depth[v]) }

// MaxDepth returns the depth of H.
func (d *Decomposition) MaxDepth() int { return d.maxDepth }

// PivotSize returns θ, the maximum pivot-set cardinality over all nodes.
func (d *Decomposition) PivotSize() int { return d.maxPivot }

// PivotSet returns χ(z) = Γ[C(z)], the T-neighbors of the component of z.
// Do not modify.
func (d *Decomposition) PivotSet(z int) []int32 { return d.pivots[z] }

// InComponent reports whether x ∈ C(z), i.e. x is z or an H-descendant.
func (d *Decomposition) InComponent(z, x int) bool {
	return d.tin[z] <= d.tin[x] && d.tin[x] < d.tout[z]
}

// Component materializes C(z) (z and its H-descendants).
func (d *Decomposition) Component(z int) []int32 {
	out := []int32{int32(z)}
	for i := 0; i < len(out); i++ {
		out = append(out, d.children[out[i]]...)
	}
	return out
}

// LCA returns the lowest common ancestor of u and v in H.
func (d *Decomposition) LCA(u, v int) int {
	if d.depth[u] < d.depth[v] {
		u, v = v, u
	}
	diff := int(d.depth[u] - d.depth[v])
	a := int32(u)
	for k := 0; diff > 0; k++ {
		if diff&1 == 1 {
			a = d.up[k][a]
		}
		diff >>= 1
	}
	b := int32(v)
	if a == b {
		return int(a)
	}
	for k := d.logN; k >= 0; k-- {
		if d.up[k][a] != d.up[k][b] {
			a = d.up[k][a]
			b = d.up[k][b]
		}
	}
	return int(d.up[0][a])
}

// Capture returns µ(d) for a demand instance with endpoints u,v: the unique
// minimum-H-depth node on the T-path between u and v. For a valid tree
// decomposition this is LCA_H(u,v) (see §4.4).
func (d *Decomposition) Capture(u, v int) int { return d.LCA(u, v) }

// CriticalEdges builds π(d) for the demand ⟨u,v⟩ per Lemma 4.2: the wings
// of the capture node z = µ(d) on path(u,v), plus, for each pivot p ∈ χ(z),
// the wings of the bending point of the path with respect to p. u != v is
// required. |π(d)| ≤ 2(θ+1).
func (d *Decomposition) CriticalEdges(u, v int) []graph.EdgeID {
	z := d.Capture(u, v)
	out := d.T.Wings(u, v, z)
	for _, p := range d.pivots[z] {
		y := d.T.Median(int(p), u, v)
		for _, e := range d.T.Wings(u, v, y) {
			dup := false
			for _, f := range out {
				if f == e {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, e)
			}
		}
	}
	return out
}
