// Package lp holds the primal/dual machinery of §3.1 and §6.1: the dual
// variables α (one per demand) and β (one per network edge), the dual
// constraint of each demand instance, and the raise rules that make
// constraints tight in the two-phase framework.
//
// Four rules implement the paper's variants:
//
//   - Unit (§3.2):   α(a) + Σ_{e∈path} β(e) ≥ p;   raise α and β(π) by δ,
//     δ = s/(|π|+1).
//   - UnitNoAlpha (Appendix A, one tree): Σ_{e∈path} β(e) ≥ p; raise
//     β(π) by δ = s/|π|.
//   - Narrow (§6.1): α(a) + h·Σ_{e∈path} β(e) ≥ p; raise α by δ and β(π)
//     by 2|π|δ, δ = s/(1+2h|π|²).
//   - Capacitated (abstract / IPPS'13 title): per-edge capacities; β is
//     stored pre-multiplied by capacity so the dual objective stays Σα+Σβ.
//
// Each rule's arithmetic is written once, over β storage its caller
// owns: Rule.LHS reads the β of the t-th edge of m.Paths.Row(i) as
// beta[at[t]]. For the global Duals, at is the path itself (LHS and Raise
// below); a processor of the distributed protocol passes its own β copies
// and its path's slots in them. Both drivers thus evaluate every
// constraint and every raise with the same float operations in the same
// order, so their duals agree bit for bit.
//
// After the first phase, if every instance is λ-satisfied, (α,β)/λ is dual
// feasible and by weak duality DualObjective/λ ≥ p(Opt) — the certificate
// every experiment reports.
package lp

import (
	"fmt"

	"treesched/internal/model"
)

// Tol is the absolute slack tolerated in feasibility and satisfaction
// checks, guarding float accumulation error.
const Tol = 1e-9

// Duals is a dual assignment ⟨α, β⟩.
type Duals struct {
	Alpha []float64 // per demand
	Beta  []float64 // per global edge
}

// NewDuals returns the all-zero assignment for m.
func NewDuals(m *model.Model) *Duals {
	return &Duals{
		Alpha: make([]float64, m.NumDemands),
		Beta:  make([]float64, m.EdgeSpace),
	}
}

// Clone deep-copies the assignment.
func (d *Duals) Clone() *Duals {
	out := &Duals{
		Alpha: make([]float64, len(d.Alpha)),
		Beta:  make([]float64, len(d.Beta)),
	}
	copy(out.Alpha, d.Alpha)
	copy(out.Beta, d.Beta)
	return out
}

// Rule abstracts the dual-constraint arithmetic of one algorithm variant.
type Rule interface {
	// LHS evaluates the left-hand side of instance i's dual constraint
	// from its demand's α and the β of its path: the t-th edge of
	// m.Paths.Row(i) has its β at beta[at[t]].
	LHS(m *model.Model, i int32, alpha float64, beta []float64, at []int32) float64
	// Delta returns δ(i), the raise that makes instance i's constraint
	// tight from its slack s, and the increment it adds to α.
	Delta(m *model.Model, i int32, s float64) (delta, alphaInc float64)
	// BetaInc returns the increment a raise of δ on instance i adds to
	// the β of its critical edge e.
	BetaInc(m *model.Model, i, e int32, delta float64) float64
}

// LHS evaluates the left-hand side of instance i's dual constraint under
// rule r on the global duals d.
func LHS(r Rule, m *model.Model, d *Duals, i int32) float64 {
	return r.LHS(m, i, d.Alpha[m.Insts[i].Demand], d.Beta, m.Paths.Row(i))
}

// Raise makes instance i's constraint tight under rule r on the global
// duals d and returns δ(i); an instance within Tol of tight is left as
// it is, with δ = 0.
func Raise(r Rule, m *model.Model, d *Duals, i int32) float64 {
	s := Slack(r, m, d, i)
	if s <= Tol {
		return 0
	}
	delta, alphaInc := r.Delta(m, i, s)
	d.Alpha[m.Insts[i].Demand] += alphaInc
	for _, e := range m.Pi.Row(i) {
		d.Beta[e] += r.BetaInc(m, i, e, delta)
	}
	return delta
}

// Slack returns p(i) − LHS(i) under rule r.
func Slack(r Rule, m *model.Model, d *Duals, i int32) float64 {
	return m.Insts[i].Profit - LHS(r, m, d, i)
}

// Satisfied reports whether instance i is ξ-satisfied: LHS ≥ ξ·p − Tol.
func Satisfied(r Rule, m *model.Model, d *Duals, i int32, xi float64) bool {
	return LHS(r, m, d, i) >= xi*m.Insts[i].Profit-Tol
}

// DualObjective returns Σα + Σ cap(e)·β(e) for the Unit and Narrow rules.
// The Capacitated rule stores β pre-multiplied, so for it — and for unit
// capacities under any rule — this equals Σα + Σβ as stored; the rule
// implementations select the right form via their own method below.
func DualObjective(r Rule, m *model.Model, d *Duals) float64 {
	sum := 0.0
	for _, a := range d.Alpha {
		sum += a
	}
	_, pre := r.(Capacitated)
	for e, b := range d.Beta {
		if pre {
			sum += b
		} else {
			sum += m.Cap[e] * b
		}
	}
	return sum
}

// VerifyLambdaSatisfied checks that every instance of m is λ-satisfied —
// i.e. that (α,β)/λ is dual feasible (weak-duality certificate).
func VerifyLambdaSatisfied(r Rule, m *model.Model, d *Duals, lambda float64) error {
	for i := range m.Insts {
		lhs := LHS(r, m, d, int32(i))
		if lhs < lambda*m.Insts[i].Profit-Tol {
			return fmt.Errorf("lp: instance %d only %.6f-satisfied (LHS=%g, p=%g, λ=%g)",
				i, lhs/m.Insts[i].Profit, lhs, m.Insts[i].Profit, lambda)
		}
	}
	return nil
}

// sumAt returns Σ_t beta[at[t]], summed in path order.
func sumAt(beta []float64, at []int32) float64 {
	sum := 0.0
	for _, s := range at {
		sum += beta[s]
	}
	return sum
}

// Unit is the §3.2 rule for unit-height demands.
type Unit struct{}

// LHS implements Rule: α + Σβ, summed from α along the path.
func (Unit) LHS(_ *model.Model, _ int32, alpha float64, beta []float64, at []int32) float64 {
	sum := alpha
	for _, s := range at {
		sum += beta[s]
	}
	return sum
}

// Delta implements Rule: δ = s/(|π|+1), and α moves by δ.
func (Unit) Delta(m *model.Model, i int32, s float64) (delta, alphaInc float64) {
	delta = s / float64(m.Pi.RowLen(i)+1)
	return delta, delta
}

// BetaInc implements Rule: β(e∈π) += δ.
func (Unit) BetaInc(_ *model.Model, _, _ int32, delta float64) float64 { return delta }

// UnitNoAlpha is the Appendix-A single-tree-network refinement of Unit:
// with one tree, every demand has exactly one instance, so the α variables
// are never shared and can be dropped — δ = s/|π| and only β is raised,
// improving the sequential ratio from 3 to 2.
type UnitNoAlpha struct{}

// LHS implements Rule: Σβ; α is not part of the constraint.
func (UnitNoAlpha) LHS(_ *model.Model, _ int32, _ float64, beta []float64, at []int32) float64 {
	return sumAt(beta, at)
}

// Delta implements Rule: δ = s/|π|, and α stays.
func (UnitNoAlpha) Delta(m *model.Model, i int32, s float64) (delta, alphaInc float64) {
	return s / float64(m.Pi.RowLen(i)), 0
}

// BetaInc implements Rule: β(e∈π) += δ.
func (UnitNoAlpha) BetaInc(_ *model.Model, _, _ int32, delta float64) float64 { return delta }

// Narrow is the §6.1 rule for narrow (h ≤ 1/2) instances.
type Narrow struct{}

// LHS implements Rule: α + h·Σβ.
func (Narrow) LHS(m *model.Model, i int32, alpha float64, beta []float64, at []int32) float64 {
	return alpha + m.Insts[i].Height*sumAt(beta, at)
}

// Delta implements Rule: δ = s/(1+2h|π|²), and α moves by δ.
func (Narrow) Delta(m *model.Model, i int32, s float64) (delta, alphaInc float64) {
	delta = narrowDelta(m, i, s)
	return delta, delta
}

// BetaInc implements Rule: β(e∈π) += 2|π|δ.
func (Narrow) BetaInc(m *model.Model, i, _ int32, delta float64) float64 {
	return 2 * float64(m.Pi.RowLen(i)) * delta
}

// narrowDelta is the δ of Narrow and Capacitated: s/(1+2h|π|²).
func narrowDelta(m *model.Model, i int32, s float64) float64 {
	h := m.Insts[i].Height
	k := float64(m.Pi.RowLen(i))
	return s / (1 + 2*h*k*k)
}

// Capacitated generalizes Narrow to per-edge capacities (the non-uniform
// bandwidth scope of the IPPS 2013 title). Beta[e] stores cap(e)·β(e), so
// the dual objective is plain Σα+Σβ and the raise arithmetic mirrors
// Narrow with the per-edge coefficient h/cap(e).
type Capacitated struct{}

// LHS implements Rule: α + h·Σ_{e∈path} Beta[e]/cap(e).
func (Capacitated) LHS(m *model.Model, i int32, alpha float64, beta []float64, at []int32) float64 {
	path := m.Paths.Row(i)
	sum := 0.0
	for t, s := range at {
		sum += beta[s] / m.Cap[path[t]]
	}
	return alpha + m.Insts[i].Height*sum
}

// Delta implements Rule: δ = s/(1+2h|π|²), and α moves by δ.
func (Capacitated) Delta(m *model.Model, i int32, s float64) (delta, alphaInc float64) {
	delta = narrowDelta(m, i, s)
	return delta, delta
}

// BetaInc implements Rule: Beta[e∈π] += 2|π|·cap(e)·δ. The constraint
// tightens because each π edge contributes h·2|π|δ to the LHS.
func (Capacitated) BetaInc(m *model.Model, i, e int32, delta float64) float64 {
	return 2 * float64(m.Pi.RowLen(i)) * m.Cap[e] * delta
}
