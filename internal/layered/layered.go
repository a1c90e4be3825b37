// Package layered implements the layered decompositions of §4.4 and §7: an
// ordering of the demand instances into groups G1..Gℓ together with a
// critical edge set π(d) per instance, satisfying the layering property —
// for i ≤ j and overlapping d1 ∈ Gi, d2 ∈ Gj, path(d2) contains at least
// one edge of π(d1).
//
// Each row is a pure function of one instance and the fixed networks,
// which model.Build assembles into the compiled model's row table (and
// WithDelta and FilterCopy copy from it). Two constructions are
// provided:
//
//   - Trees (Lemma 4.2, TreeRow): groups by decreasing capture depth in
//     a tree decomposition; π(d) = wings of the capture node plus wings
//     of the bending points w.r.t. the component's pivots; ∆ = 2(θ+1).
//     With the ideal decomposition: ∆ = 6, ℓ = O(log n).
//   - Lines (§7, implicit in Panconesi–Sozio; LineGroup, LinePi):
//     groups by length doubling; π(d) = {start, mid, end} timeslots;
//     ∆ = 3, ℓ = ⌈log(Lmax/Lmin)⌉+1.
package layered

import (
	"math/bits"

	"treesched/internal/graph"
	"treesched/internal/instance"
	"treesched/internal/treedecomp"
)

// TreeRow computes the layered row of one tree instance: its group
// (1-based epoch) and critical edge set π(d) as global edge ids. The row
// is a pure function of (instance, decomposition), which is what makes
// incremental model rebuilds possible: an unchanged instance keeps its
// row verbatim. wingsOnly selects the Appendix-A critical sets: the
// wings of the capture node µ(d) on path(d) only, so ∆ ≤ 2 (Observation
// A.1). They are valid for the sequential algorithm, which processes one
// tree at a time; the layering property across same-depth captures of
// different nodes does NOT hold for them.
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
