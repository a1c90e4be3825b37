// Package layered implements the layered decompositions of §4.4 and §7: an
// ordering of the demand instances into groups G1..Gℓ together with a
// critical edge set π(d) per instance, satisfying the layering property —
// for i ≤ j and overlapping d1 ∈ Gi, d2 ∈ Gj, path(d2) contains at least
// one edge of π(d1).
//
// Two constructions are provided:
//
//   - Trees (Lemma 4.2): groups by decreasing capture depth in a tree
//     decomposition; π(d) = wings of the capture node plus wings of the
//     bending points w.r.t. the component's pivots; ∆ = 2(θ+1). With the
//     ideal decomposition: ∆ = 6, ℓ = O(log n).
//   - Lines (§7, implicit in Panconesi–Sozio): groups by length doubling;
//     π(d) = {start, mid, end} timeslots; ∆ = 3, ℓ = ⌈log(Lmax/Lmin)⌉+1.
package layered

import (
	"fmt"
	"math/bits"

	"treesched/internal/graph"
	"treesched/internal/instance"
	"treesched/internal/par"
	"treesched/internal/treedecomp"
)

// rowShard is the instances-per-shard granule of the parallel row
// construction. Row computation is a few tree walks (microseconds), so
// shards are sized to amortize goroutine handoff while still load-
// balancing trees of uneven depth across workers.
const rowShard = 512

// Assignment attaches a group (1-based epoch index) and a critical edge set
// (global edge ids) to every demand instance, parallel to the instance
// slice it was built from.
type Assignment struct {
	Group     []int32
	Pi        [][]int32
	NumGroups int
	// Delta is the maximum critical-set size |π(d)| observed.
	Delta int
}

// ForTrees builds the Lemma 4.2 layered decomposition for a tree problem,
// given one tree decomposition per tree. Group 1 holds the instances
// captured at the deepest decomposition nodes of their respective trees.
func ForTrees(p *instance.Problem, insts []instance.Inst, decomps []*treedecomp.Decomposition) (*Assignment, error) {
	return forTrees(p, insts, decomps, false, 1)
}

// ForTreesSharded is ForTrees with row construction sharded across a
// bounded worker fan-out (workers: 0 = GOMAXPROCS, ≤1 = the serial
// loop). Every row is a pure per-instance function written to its own
// index slot and the Delta/NumGroups reduction runs serially afterwards,
// so the Assignment is identical at any worker count.
func ForTreesSharded(p *instance.Problem, insts []instance.Inst, decomps []*treedecomp.Decomposition, workers int) (*Assignment, error) {
	return forTrees(p, insts, decomps, false, workers)
}

// ForTreesCaptureWingsSharded builds the Appendix-A ordering: the same
// depth-based groups, but π(d) holds only the wings of the capture node
// µ(d) on path(d), so ∆ ≤ 2 (Observation A.1). Valid for the sequential
// algorithm, which processes one tree at a time; the distributed layered
// property across same-depth captures of different nodes does NOT hold
// for these critical sets. Rows are built with the sharded construction
// of ForTreesSharded.
func ForTreesCaptureWingsSharded(p *instance.Problem, insts []instance.Inst, decomps []*treedecomp.Decomposition, workers int) (*Assignment, error) {
	return forTrees(p, insts, decomps, true, workers)
}

func forTrees(p *instance.Problem, insts []instance.Inst, decomps []*treedecomp.Decomposition, wingsOnly bool, workers int) (*Assignment, error) {
	if p.Kind != instance.KindTree {
		return nil, fmt.Errorf("layered: ForTrees on %v problem", p.Kind)
	}
	if len(decomps) != len(p.Trees) {
		return nil, fmt.Errorf("layered: %d decompositions for %d trees", len(decomps), len(p.Trees))
	}
	a := &Assignment{
		Group: make([]int32, len(insts)),
		Pi:    make([][]int32, len(insts)),
	}
	par.Shards(par.Resolve(workers), len(insts), rowShard, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a.Group[i], a.Pi[i] = TreeRow(p, insts[i], decomps[insts[i].Net], wingsOnly)
		}
	})
	a.reduce()
	return a, nil
}

// reduce recomputes the NumGroups/Delta maxima from the filled rows — a
// serial pass, so the scalars never depend on worker scheduling.
func (a *Assignment) reduce() {
	a.NumGroups, a.Delta = 0, 0
	for i := range a.Group {
		if g := int(a.Group[i]); g > a.NumGroups {
			a.NumGroups = g
		}
		if len(a.Pi[i]) > a.Delta {
			a.Delta = len(a.Pi[i])
		}
	}
}

// TreeRow computes the layered row of one tree instance: its group
// (1-based epoch) and critical edge set π(d) as global edge ids. The row
// is a pure function of (instance, decomposition), which is what makes
// incremental model rebuilds possible: an unchanged instance keeps its
// row verbatim. wingsOnly selects the Appendix-A critical sets.
func TreeRow(p *instance.Problem, d instance.Inst, dec *treedecomp.Decomposition, wingsOnly bool) (int32, []int32) {
	z := dec.Capture(int(d.U), int(d.V))
	// Deepest captures go first: group = ℓ_q − depth(z) + 1.
	g := int32(dec.MaxDepth() - dec.Depth(z) + 1)
	var local []graph.EdgeID
	if wingsOnly {
		local = p.Trees[d.Net].Wings(int(d.U), int(d.V), z)
	} else {
		local = dec.CriticalEdges(int(d.U), int(d.V))
	}
	pi := make([]int32, len(local))
	for k, e := range local {
		pi[k] = p.GlobalEdge(int(d.Net), e)
	}
	return g, pi
}

// ForLines builds the §7 length-doubling layered decomposition for a line
// problem. Instances of length in [2^(i-1)·Lmin, 2^i·Lmin) form group i;
// π(d) = {start, mid, end} timeslots of the instance.
func ForLines(p *instance.Problem, insts []instance.Inst) (*Assignment, error) {
	return ForLinesSharded(p, insts, 1)
}

// ForLinesSharded is ForLines with the per-instance rows sharded across
// workers (0 = GOMAXPROCS, ≤1 = serial). Lmin — the one global input of
// the line rows — is computed by a serial pass first; everything after
// is per-instance, so the result is identical at any worker count.
func ForLinesSharded(p *instance.Problem, insts []instance.Inst, workers int) (*Assignment, error) {
	if p.Kind != instance.KindLine {
		return nil, fmt.Errorf("layered: ForLines on %v problem", p.Kind)
	}
	a := &Assignment{
		Group: make([]int32, len(insts)),
		Pi:    make([][]int32, len(insts)),
	}
	lmin := LineLmin(insts)
	par.Shards(par.Resolve(workers), len(insts), rowShard, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a.Group[i] = LineGroup(insts[i].Len(), lmin)
			a.Pi[i] = LinePi(p, insts[i])
		}
	})
	a.reduce()
	return a, nil
}

// LineLmin returns Lmin, the minimum instance length, the anchor of the
// length-doubling groups. Zero for an empty instance set.
func LineLmin(insts []instance.Inst) int32 {
	lmin := int32(0)
	for i, d := range insts {
		if l := d.Len(); i == 0 || l < lmin {
			lmin = l
		}
	}
	return lmin
}

// LineGroup returns the length-doubling group of an instance of length l:
// ⌊log2(l/Lmin)⌋ + 1. Unlike the tree groups it depends on the global
// Lmin, so an incremental rebuild recomputes every line group whenever
// the instance set changes (an O(n) integer pass).
func LineGroup(l, lmin int32) int32 {
	return int32(bits.Len32(uint32(l / lmin)))
}

// LinePi returns the §7 critical set of one line instance: its start, mid
// and end timeslots as global edge ids (deduplicated for short
// instances). A pure per-instance function, like TreeRow.
func LinePi(p *instance.Problem, d instance.Inst) []int32 {
	mid := (d.U + d.V) / 2
	pi := []int32{p.GlobalEdge(int(d.Net), d.U)}
	if mid != d.U {
		pi = append(pi, p.GlobalEdge(int(d.Net), mid))
	}
	if d.V != d.U && d.V != mid {
		pi = append(pi, p.GlobalEdge(int(d.Net), d.V))
	}
	return pi
}

// Verify brute-force checks the layering property over all instance pairs:
// for any overlapping d1 ∈ Gi, d2 ∈ Gj with i ≤ j, path(d2) must include a
// critical edge of d1. O(|D|² · path length); for tests and experiments.
func Verify(p *instance.Problem, insts []instance.Inst, a *Assignment) error {
	paths := make([]map[int32]bool, len(insts))
	for i := range insts {
		m := map[int32]bool{}
		for _, e := range p.PathEdges(insts[i]) {
			m[e] = true
		}
		paths[i] = m
	}
	for i := range insts {
		for j := range insts {
			if i == j || a.Group[i] > a.Group[j] {
				continue
			}
			if !p.Overlap(insts[i], insts[j]) {
				continue
			}
			hit := false
			for _, e := range a.Pi[i] {
				if paths[j][e] {
					hit = true
					break
				}
			}
			if !hit {
				return fmt.Errorf("layered: overlapping d%d (group %d) and d%d (group %d): path(d%d) misses π(d%d)=%v",
					i, a.Group[i], j, a.Group[j], j, i, a.Pi[i])
			}
		}
	}
	return nil
}
