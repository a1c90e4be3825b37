package core

import (
	"fmt"

	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/model"
)

// The wrappers and invariant checks below serve the tests only: the
// solvers run phase1 and phase2 on pooled scratches, and the checks
// restate properties of §3.2 that the tests hold every run to.

// Phase1 runs the first phase (§3.2/§5) centrally on a fresh scratch, so
// the returned duals and stack are the caller's to keep.
func Phase1(m *model.Model, rule lp.Rule, sched Schedule, seed uint64, trace *Trace) (*lp.Duals, []StackEntry, error) {
	return phase1(m, rule, sched, seed, trace, nil, newSolveScratch(m))
}

// Phase2 runs the second phase over fresh buffers.
func Phase2(m *model.Model, stack []StackEntry) []int32 {
	return phase2(m, stack, make([]float64, m.EdgeSpace), make([]bool, m.NumDemands), nil)
}

// instanceKey identifies an instance descriptor for set comparisons.
func instanceKey(d instance.Inst) [4]int32 {
	return [4]int32{d.Demand, d.Net, d.U, d.V}
}

// SameSelection reports whether two results selected identical instance
// sets (by demand, network and placement).
func SameSelection(a, b *Result) bool {
	if len(a.Selected) != len(b.Selected) {
		return false
	}
	set := make(map[[4]int32]bool, len(a.Selected))
	for _, d := range a.Selected {
		set[instanceKey(d)] = true
	}
	for _, d := range b.Selected {
		if !set[instanceKey(d)] {
			return false
		}
	}
	return true
}

// CheckInterference verifies the interference property of §3.2 on a raise
// trace: for any pair of overlapping demand instances d1 raised before d2,
// path(d2) must include at least one critical edge of π(d1). This is the
// hypothesis of Lemma 3.1, so every run of every algorithm must satisfy
// it; the tests call this on collected traces. O(R²).
func CheckInterference(m *model.Model, trace *Trace) error {
	if trace == nil {
		return fmt.Errorf("core: CheckInterference needs a collected trace")
	}
	paths := make([]map[int32]bool, len(m.Insts))
	pathSet := func(i int32) map[int32]bool {
		if paths[i] == nil {
			s := make(map[int32]bool, m.Paths.RowLen(i))
			for _, e := range m.Paths.Row(i) {
				s[e] = true
			}
			paths[i] = s
		}
		return paths[i]
	}
	for a := 0; a < len(trace.Events); a++ {
		for b := a + 1; b < len(trace.Events); b++ {
			d1, d2 := trace.Events[a].Inst, trace.Events[b].Inst
			if !m.P.Overlap(m.Insts[d1], m.Insts[d2]) {
				continue
			}
			hit := false
			p2 := pathSet(d2)
			for _, e := range m.Pi.Row(d1) {
				if p2[e] {
					hit = true
					break
				}
			}
			if !hit {
				return fmt.Errorf("core: interference violated: instance %d (event %d, epoch %d) raised before overlapping %d (event %d, epoch %d) but path(d2) misses π(d1)",
					d1, a, trace.Events[a].Epoch, d2, b, trace.Events[b].Epoch)
			}
		}
	}
	return nil
}

// CheckPhase2Coverage verifies the property the Lemma 3.1 profit bound
// rests on: every instance raised in the first phase is either selected,
// or blocked by the selection — its demand is already scheduled, or some
// path edge cannot fit its height. Equivalently, "for any d' ∈ R, either
// d' ∈ S or a successor of d' belongs to S".
func CheckPhase2Coverage(m *model.Model, stack []StackEntry, selected []int32) error {
	load := make([]float64, m.EdgeSpace)
	used := make([]bool, m.NumDemands)
	inSel := make(map[int32]bool, len(selected))
	for _, i := range selected {
		inSel[i] = true
		used[m.Insts[i].Demand] = true
		for _, e := range m.Paths.Row(i) {
			load[e] += m.Insts[i].Height
		}
	}
	for _, entry := range stack {
		for _, i := range entry.Set {
			if inSel[i] {
				continue
			}
			if used[m.Insts[i].Demand] {
				continue // killed via K1: its demand is scheduled
			}
			blocked := false
			for _, e := range m.Paths.Row(i) {
				if load[e]+m.Insts[i].Height > m.Cap[e]+lp.Tol {
					blocked = true
					break
				}
			}
			if !blocked {
				return fmt.Errorf("core: raised instance %d neither selected nor blocked — phase 2 missed it", i)
			}
		}
	}
	return nil
}

// CheckRaisedSetsIndependent verifies that every stack entry pushed in the
// first phase was an independent set (pairwise non-conflicting), as the
// framework requires for parallel raising.
func CheckRaisedSetsIndependent(m *model.Model, stack []StackEntry) error {
	for s, entry := range stack {
		for x := 0; x < len(entry.Set); x++ {
			for y := x + 1; y < len(entry.Set); y++ {
				if m.Conflict(entry.Set[x], entry.Set[y]) {
					return fmt.Errorf("core: stack entry %d holds conflicting instances %d,%d",
						s, entry.Set[x], entry.Set[y])
				}
			}
		}
	}
	return nil
}
