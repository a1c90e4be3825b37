package core

import (
	"treesched/internal/lp"
	"treesched/internal/model"
)

// nodeState is the per-processor private state of the protocol, laid out
// densely by local position: an owned instance by its position x in mine,
// a relevant edge (one on any owned instance's path) by its slot in
// edges. The β copies and the phase-2 load are parallel to edges, and
// each owned path is kept as its slots in path order, so the dual
// constraint sums read no hash. A neighbor's edge is found in O(1) by
// one probe sequence of table, an open-addressed index over the row.
type nodeState struct {
	mine       []int32   // instance ids owned by this processor
	alpha      float64   // α of the owned demand
	edges      []int32   // relevant edges, ascending
	table      []int32   // open-addressed index of edges: slot+1, 0 = empty
	shift      uint8     // 32 − log2(len(table)): the Fibonacci hash's shift
	beta       []float64 // local β copies, parallel to edges
	p2load     []float64 // phase-2 load, parallel to edges
	pathOff    []int32   // mine[x]'s path is slots[pathOff[x]:pathOff[x+1]]
	slots      []int32   // owned paths as slots of edges, in path order
	lhs        []float64 // lhs[x]: the last full dual LHS of mine[x]
	lhsStale   []bool    // lhsStale[x]: α or a β copy moved since lhs[x]
	stack      []int32   // positions in mine of raised instances, in raise order
	raiseSteps []int     // global step number of each raise (parallel to stack)
	selected   []int32   // phase-2 output
}

// pathSlots returns the slots of owned instance mine[x]'s path, in path
// order.
func (ns *nodeState) pathSlots(x int) []int32 {
	return ns.slots[ns.pathOff[x]:ns.pathOff[x+1]]
}

// fibHash is 2^32/φ, the multiplier of Fibonacci hashing: the top bits
// of e·fibHash spread consecutive edge ids over the whole table.
const fibHash = 0x9E3779B9

// tableSize returns the slot table's length for a row of at most r
// edges and its Fibonacci shift: the least power of two that is at least
// 2r (1 for an empty row), so every probe sequence meets an empty entry
// within the table's half that the row leaves free.
func tableSize(r int) (size int, shift uint8) {
	size, bits := 1, 0
	for size < 2*r {
		size <<= 1
		bits++
	}
	return size, uint8(32 - bits)
}

// index fills table, zeroed and sized by tableSize, with the slots of
// edges by linear probing.
func (ns *nodeState) index() {
	mask := uint32(len(ns.table) - 1)
	for s, e := range ns.edges {
		h := uint32(e) * fibHash >> ns.shift
		for ns.table[h] != 0 {
			h = (h + 1) & mask
		}
		ns.table[h] = int32(s + 1)
	}
}

// slot returns edge e's slot in the relevant row, if e is relevant. The
// probe walks from e's Fibonacci hash to e's entry or to the first empty
// one; a hit is confirmed against edges.
func (ns *nodeState) slot(e int32) (int, bool) {
	mask := uint32(len(ns.table) - 1)
	for h := uint32(e) * fibHash >> ns.shift; ; h = (h + 1) & mask {
		v := ns.table[h]
		if v == 0 {
			return 0, false
		}
		if ns.edges[v-1] == e {
			return int(v - 1), true
		}
	}
}

// lhsOf returns the dual-constraint LHS of owned instance mine[x]: a full
// rule.LHS evaluation over the processor's β copies when α or a copy
// moved since the last one, and that last evaluation otherwise. Every
// value it returns is a full evaluation of the current duals, so it is
// float-identical to calling rule.LHS.
func (ns *nodeState) lhsOf(m *model.Model, rule lp.Rule, x int) float64 {
	if ns.lhsStale[x] {
		ns.lhs[x] = rule.LHS(m, ns.mine[x], ns.alpha, ns.beta, ns.pathSlots(x))
		ns.lhsStale[x] = false
	}
	return ns.lhs[x]
}

// dualsMoved clears the LHS cache of every owned instance: α or a β copy
// of the processor changed.
func (ns *nodeState) dualsMoved() {
	for x := range ns.lhsStale {
		ns.lhsStale[x] = true
	}
}

// raiseLocal raises owned instance mine[x] tight against local state and
// returns δ: lp.Raise on the processor's copies.
func (ns *nodeState) raiseLocal(m *model.Model, rule lp.Rule, x int) float64 {
	i := ns.mine[x]
	s := m.Insts[i].Profit - ns.lhsOf(m, rule, x)
	if s <= lp.Tol {
		return 0
	}
	delta, alphaInc := rule.Delta(m, i, s)
	ns.alpha += alphaInc
	ns.applyRaise(m, rule, i, delta)
	ns.dualsMoved()
	return delta
}

// applyRaise folds a raise of δ on instance i, the processor's own or an
// announced neighbor's, into the β copies of its relevant critical edges.
// A relevant edge's copy moves, which clears the LHS cache.
func (ns *nodeState) applyRaise(m *model.Model, rule lp.Rule, i int32, delta float64) {
	for _, e := range m.Pi.Row(i) {
		if s, ok := ns.slot(e); ok {
			ns.beta[s] += rule.BetaInc(m, i, e, delta)
			ns.dualsMoved()
		}
	}
}
