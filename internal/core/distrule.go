package core

import (
	"slices"

	"treesched/internal/lp"
	"treesched/internal/model"
)

// distRule is the node-local mirror of an lp.Rule: it evaluates the dual
// constraint and computes raise increments from a processor's private β
// copies instead of the shared duals. Keeping the three rule variants
// behind this interface is what lets one protocol engine (distproto.go)
// drive every distributed algorithm, the same way lp.Rule lets runPhases
// drive every centralized one.
//
// The arithmetic must match lp.Rule exactly — the tested invariant is
// that distributed and centralized runs select identical instances for
// equal seeds — and it does, because every raiser of an edge relevant to
// a node shares a resource with that node, so local β copies never drift
// (cross-checked again in assembleDistributed).
type distRule interface {
	// lhs evaluates the dual constraint LHS of the owned instance at
	// position x of ns.mine from local state; matches lp.Rule.LHS.
	lhs(m *model.Model, ns *nodeState, x int) float64
	// delta returns the raise amount for instance i given slack s and
	// critical-set size k; matches lp.Rule.Raise's α increment.
	delta(m *model.Model, i int32, s, k float64) float64
	// betaInc returns the β increment on critical edge e implied by a
	// raise of δ on an instance with critical-set size k.
	betaInc(m *model.Model, e int32, k, delta float64) float64
}

// localRule maps an lp.Rule to its node-local mirror.
func localRule(rule lp.Rule) distRule {
	switch rule.(type) {
	case lp.Unit:
		return unitLocal{}
	case lp.Narrow:
		return narrowLocal{}
	case lp.Capacitated:
		return capLocal{}
	default:
		panic("core: distributed protocol does not support rule " + rule.Name())
	}
}

// unitLocal mirrors lp.Unit: LHS = α + Σβ, δ = s/(k+1), β += δ.
type unitLocal struct{}

func (unitLocal) lhs(m *model.Model, ns *nodeState, x int) float64 {
	sum := 0.0
	for _, s := range ns.pathSlots(x) {
		sum += ns.beta[s]
	}
	return ns.alpha + sum
}

func (unitLocal) delta(m *model.Model, i int32, s, k float64) float64 {
	return s / (k + 1)
}

func (unitLocal) betaInc(m *model.Model, e int32, k, delta float64) float64 {
	return delta
}

// narrowLocal mirrors lp.Narrow: LHS = α + h·Σβ, δ = s/(1+2hk²),
// β += 2kδ.
type narrowLocal struct{}

func (narrowLocal) lhs(m *model.Model, ns *nodeState, x int) float64 {
	sum := 0.0
	for _, s := range ns.pathSlots(x) {
		sum += ns.beta[s]
	}
	return ns.alpha + m.Insts[ns.mine[x]].Height*sum
}

func (narrowLocal) delta(m *model.Model, i int32, s, k float64) float64 {
	h := m.Insts[i].Height
	return s / (1 + 2*h*k*k)
}

func (narrowLocal) betaInc(m *model.Model, e int32, k, delta float64) float64 {
	return 2 * k * delta
}

// capLocal mirrors lp.Capacitated: LHS = α + h·Σβ/c(e), δ = s/(1+2hk²),
// β += 2k·c(e)·δ.
type capLocal struct{}

func (capLocal) lhs(m *model.Model, ns *nodeState, x int) float64 {
	sum := 0.0
	for _, s := range ns.pathSlots(x) {
		sum += ns.beta[s] / m.Cap[ns.edges[s]]
	}
	return ns.alpha + m.Insts[ns.mine[x]].Height*sum
}

func (capLocal) delta(m *model.Model, i int32, s, k float64) float64 {
	h := m.Insts[i].Height
	return s / (1 + 2*h*k*k)
}

func (capLocal) betaInc(m *model.Model, e int32, k, delta float64) float64 {
	return 2 * k * m.Cap[e] * delta
}

// nodeState is the per-processor private state of the protocol, laid out
// densely by local position: an owned instance by its position x in mine,
// a relevant edge (one on any owned instance's path) by its slot in
// edges. The β copies and the phase-2 load are parallel to edges, and
// each owned path is kept as its slots in path order, so the dual
// constraint sums read no hash and a neighbor's edge is found by binary
// search in the sorted row.
type nodeState struct {
	mine       []int32   // instance ids owned by this processor
	alpha      float64   // α of the owned demand
	edges      []int32   // relevant edges, ascending
	beta       []float64 // local β copies, parallel to edges
	p2load     []float64 // phase-2 load, parallel to edges
	pathOff    []int32   // mine[x]'s path is slots[pathOff[x]:pathOff[x+1]]
	slots      []int32   // owned paths as slots of edges, in path order
	stack      []int32   // positions in mine of raised instances, in raise order
	raiseSteps []int     // global step number of each raise (parallel to stack)
	selected   []int32   // phase-2 output
}

// pathSlots returns the slots of owned instance mine[x]'s path, in path
// order.
func (ns *nodeState) pathSlots(x int) []int32 {
	return ns.slots[ns.pathOff[x]:ns.pathOff[x+1]]
}

// slot returns edge e's slot in the relevant row, if e is relevant.
func (ns *nodeState) slot(e int32) (int, bool) {
	return slices.BinarySearch(ns.edges, e)
}

// raiseLocal raises owned instance mine[x] tight against local state and
// returns δ; mirrors lp.Rule.Raise.
func (ns *nodeState) raiseLocal(m *model.Model, dr distRule, x int) float64 {
	i := ns.mine[x]
	s := m.Insts[i].Profit - dr.lhs(m, ns, x)
	if s <= lp.Tol {
		return 0
	}
	pi := m.Pi.Row(i)
	k := float64(len(pi))
	delta := dr.delta(m, i, s, k)
	ns.alpha += delta
	for _, e := range pi {
		ns.applyBeta(e, dr.betaInc(m, e, k, delta))
	}
	return delta
}

// applyRemoteRaise folds a neighbor's announced raise into local β copies.
func (ns *nodeState) applyRemoteRaise(m *model.Model, dr distRule, i int32, delta float64) {
	pi := m.Pi.Row(i)
	k := float64(len(pi))
	for _, e := range pi {
		ns.applyBeta(e, dr.betaInc(m, e, k, delta))
	}
}

// applyBeta adds inc to the β copy of edge e when e is relevant.
func (ns *nodeState) applyBeta(e int32, inc float64) {
	if s, ok := ns.slot(e); ok {
		ns.beta[s] += inc
	}
}
