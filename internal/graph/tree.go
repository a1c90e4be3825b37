// Package graph provides the tree-network substrate used throughout the
// library: undirected trees over a fixed vertex set with fast lowest common
// ancestor, path, distance, and median queries.
//
// Vertices are numbered 0..N-1. Every tree is stored in a rooted orientation
// (root 0 by convention) purely for query acceleration; the tree itself is
// undirected, exactly as in the paper's tree-networks (§2).
//
// Edges are identified by their child endpoint in the rooted orientation:
// EdgeID(v) is the edge between v and its parent. This gives each of the
// N-1 edges a dense id in 1..N-1 (vertex 0 has no parent edge), which the
// LP layer exploits to store dual variables in flat slices.
package graph

import (
	"errors"
	"fmt"
	"math/bits"
)

// EdgeID identifies an edge of a rooted tree by its child endpoint.
type EdgeID = int32

// Tree is an undirected tree over vertices 0..N-1 with O(log N) LCA,
// distance, and median queries. The zero value is not usable; construct
// with NewTree.
type Tree struct {
	n      int
	adj    [][]int32
	parent []int32 // parent[v] in the orientation rooted at 0; -1 for root
	depth  []int32 // depth[0] = 0
	up     [][]int32
	logN   int
}

// ErrNotATree is returned by NewTree when the edge set does not form a
// single connected acyclic graph over all n vertices.
var ErrNotATree = errors.New("graph: edge set is not a spanning tree")

// NewTree builds a tree over n vertices from exactly n-1 undirected edges.
// It validates connectivity and acyclicity.
func NewTree(n int, edges [][2]int) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: n must be positive, got %d", n)
	}
	if len(edges) != n-1 {
		return nil, fmt.Errorf("graph: want %d edges for %d vertices, got %d: %w", n-1, n, len(edges), ErrNotATree)
	}
	adj := make([][]int32, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d: %w", u, ErrNotATree)
		}
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	}
	t := &Tree{
		n:      n,
		adj:    adj,
		parent: make([]int32, n),
		depth:  make([]int32, n),
	}
	for i := range t.parent {
		t.parent[i] = -2 // unvisited
	}
	// Iterative DFS from root 0 establishes parents and depths, and
	// detects disconnection (unvisited vertices) or cycles (revisit).
	stack := make([]int32, 0, n)
	stack = append(stack, 0)
	t.parent[0] = -1
	visited := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited++
		for _, w := range adj[v] {
			if w == t.parent[v] {
				continue
			}
			if t.parent[w] != -2 {
				return nil, fmt.Errorf("graph: cycle through edge (%d,%d): %w", v, w, ErrNotATree)
			}
			t.parent[w] = v
			t.depth[w] = t.depth[v] + 1
			stack = append(stack, w)
		}
	}
	if visited != n {
		return nil, fmt.Errorf("graph: only %d of %d vertices reachable from 0: %w", visited, n, ErrNotATree)
	}
	t.buildLCA()
	return t, nil
}

// NewPath builds the path graph 0-1-2-...-(n-1), the line-network of §1.
func NewPath(n int) *Tree {
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{v - 1, v})
	}
	t, err := NewTree(n, edges)
	if err != nil {
		panic("graph: NewPath constructed an invalid tree: " + err.Error())
	}
	return t
}

// NewStar builds the star with center 0 and leaves 1..n-1.
func NewStar(n int) *Tree {
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	t, err := NewTree(n, edges)
	if err != nil {
		panic("graph: NewStar constructed an invalid tree: " + err.Error())
	}
	return t
}

func (t *Tree) buildLCA() {
	logN := 1
	for 1<<logN < t.n {
		logN++
	}
	t.logN = logN
	t.up = make([][]int32, logN+1)
	t.up[0] = make([]int32, t.n)
	for v := 0; v < t.n; v++ {
		if t.parent[v] < 0 {
			t.up[0][v] = int32(v)
		} else {
			t.up[0][v] = t.parent[v]
		}
	}
	for k := 1; k <= logN; k++ {
		t.up[k] = make([]int32, t.n)
		prev := t.up[k-1]
		for v := 0; v < t.n; v++ {
			t.up[k][v] = prev[prev[v]]
		}
	}
}

// N returns the number of vertices.
func (t *Tree) N() int { return t.n }

// NumEdges returns the number of edges (N-1).
func (t *Tree) NumEdges() int { return t.n - 1 }

// Adj returns the neighbors of v. The returned slice must not be modified.
func (t *Tree) Adj(v int) []int32 { return t.adj[v] }

// Degree returns the number of neighbors of v.
func (t *Tree) Degree(v int) int { return len(t.adj[v]) }

// Parent returns the parent of v in the rooted orientation, or -1 for the root.
func (t *Tree) Parent(v int) int { return int(t.parent[v]) }

// Depth returns the number of edges from the root (vertex 0) to v.
func (t *Tree) Depth(v int) int { return int(t.depth[v]) }

// Ancestor returns the k-th ancestor of v (0th is v itself). If k exceeds
// the depth of v it returns the root.
func (t *Tree) Ancestor(v, k int) int {
	u := int32(v)
	for k > 0 && u != 0 {
		step := bits.TrailingZeros(uint(k))
		if step > t.logN {
			step = t.logN
		}
		u = t.up[step][u]
		k -= 1 << step
	}
	return int(u)
}

// LCA returns the lowest common ancestor of u and v in the rooted
// orientation.
func (t *Tree) LCA(u, v int) int {
	if t.depth[u] < t.depth[v] {
		u, v = v, u
	}
	u = t.Ancestor(u, int(t.depth[u]-t.depth[v]))
	if u == v {
		return u
	}
	a, b := int32(u), int32(v)
	for k := t.logN; k >= 0; k-- {
		if t.up[k][a] != t.up[k][b] {
			a = t.up[k][a]
			b = t.up[k][b]
		}
	}
	return int(t.up[0][a])
}

// Dist returns the number of edges on the unique path between u and v.
func (t *Tree) Dist(u, v int) int {
	l := t.LCA(u, v)
	return int(t.depth[u] + t.depth[v] - 2*t.depth[l])
}

// OnPath reports whether x lies on the unique path between u and v
// (endpoints included).
func (t *Tree) OnPath(u, v, x int) bool {
	return t.Dist(u, x)+t.Dist(x, v) == t.Dist(u, v)
}

// Median returns the unique vertex that lies on all three pairwise paths
// among a, b, c (the "meeting point" of the tripod). For the bending point
// of a demand ⟨u,v⟩ with respect to a node w (§4.4), use Median(w, u, v).
func (t *Tree) Median(a, b, c int) int {
	ab := t.LCA(a, b)
	ac := t.LCA(a, c)
	bc := t.LCA(b, c)
	// Exactly two of the three LCAs coincide (the shallower one); the
	// remaining, deepest one is the median.
	if ab == ac {
		return bc
	}
	if ab == bc {
		return ac
	}
	return ab
}

// PathVertices returns the vertices on the path from u to v, in order
// (u first, v last).
func (t *Tree) PathVertices(u, v int) []int32 {
	l := t.LCA(u, v)
	var left []int32
	for x := int32(u); x != int32(l); x = t.parent[x] {
		left = append(left, x)
	}
	left = append(left, int32(l))
	var right []int32
	for x := int32(v); x != int32(l); x = t.parent[x] {
		right = append(right, x)
	}
	for i := len(right) - 1; i >= 0; i-- {
		left = append(left, right[i])
	}
	return left
}

// PathEdges returns the edge ids (child endpoints in the rooted
// orientation) of the path between u and v. The order is: edges ascending
// from u to the LCA, then edges descending from the LCA to v.
func (t *Tree) PathEdges(u, v int) []EdgeID {
	l := int32(t.LCA(u, v))
	out := make([]EdgeID, 0, t.Dist(u, v))
	for x := int32(u); x != l; x = t.parent[x] {
		out = append(out, x)
	}
	// Edges from l down to v are discovered bottom-up; reverse in place.
	mark := len(out)
	for x := int32(v); x != l; x = t.parent[x] {
		out = append(out, x)
	}
	for i, j := mark, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// EdgeOnPath reports whether the edge identified by child vertex e lies on
// the path between u and v. In a tree, an edge lies on a path exactly when
// both of its endpoints do.
func (t *Tree) EdgeOnPath(u, v int, e EdgeID) bool {
	p := t.parent[e]
	if p < 0 {
		return false
	}
	return t.OnPath(u, v, int(e)) && t.OnPath(u, v, int(p))
}

// EdgeEndpoints returns the two endpoints (child, parent) of edge e.
func (t *Tree) EdgeEndpoints(e EdgeID) (int, int) {
	return int(e), int(t.parent[e])
}

// EdgeBetween returns the edge id of the edge joining adjacent vertices u
// and v, or -1 if they are not adjacent.
func (t *Tree) EdgeBetween(u, v int) EdgeID {
	if t.parent[u] == int32(v) {
		return int32(u)
	}
	if t.parent[v] == int32(u) {
		return int32(v)
	}
	return -1
}

// PathsOverlap reports whether path(a,b) and path(c,d) share at least one
// edge. Two tree paths share an edge exactly when the projections of c and
// d onto path(a,b) are distinct vertices.
func (t *Tree) PathsOverlap(a, b, c, d int) bool {
	return t.Median(a, b, c) != t.Median(a, b, d)
}

// Wings returns the edges of path(u,v) incident to a vertex y that lies on
// the path: one edge if y is an endpoint, two otherwise (§4.4).
// It panics if y is not on the path.
func (t *Tree) Wings(u, v, y int) []EdgeID {
	if !t.OnPath(u, v, y) {
		panic(fmt.Sprintf("graph: Wings: vertex %d not on path (%d,%d)", y, u, v))
	}
	var out []EdgeID
	// The wing toward u exists when y != u; it is the first edge on
	// path(y, u). Identify it by the neighbor of y on that path.
	if y != u {
		w := t.neighborToward(y, u)
		out = append(out, t.EdgeBetween(y, w))
	}
	if y != v {
		w := t.neighborToward(y, v)
		e := t.EdgeBetween(y, w)
		if len(out) == 0 || out[0] != e {
			out = append(out, e)
		}
	}
	return out
}

// neighborToward returns the neighbor of y on the path from y to target
// (y != target).
func (t *Tree) neighborToward(y, target int) int {
	// If target is in the subtree of a child c of y, the neighbor is that
	// child; otherwise it is parent(y). The child is the ancestor of
	// target at depth(y)+1 when LCA(y,target)==y.
	if t.LCA(y, target) == y {
		c := t.Ancestor(target, t.Dist(y, target)-1)
		return c
	}
	return int(t.parent[y])
}

// Subtree returns the vertices of the subtree rooted at v (in the rooted
// orientation), including v.
func (t *Tree) Subtree(v int) []int32 {
	out := []int32{int32(v)}
	for i := 0; i < len(out); i++ {
		x := out[i]
		for _, w := range t.adj[x] {
			if w != t.parent[x] {
				out = append(out, w)
			}
		}
	}
	return out
}

// Edges returns all edges as (child, parent) pairs in a deterministic order.
func (t *Tree) Edges() [][2]int {
	out := make([][2]int, 0, t.n-1)
	for v := 1; v < t.n; v++ {
		out = append(out, [2]int{v, int(t.parent[v])})
	}
	return out
}
