package model

// Incremental model rebuilds. A compiled Model is a per-instance table
// (path, π(d), group) plus derived indexes; the table rows are pure
// per-instance functions of the fixed network structure — the tree
// decompositions for tree problems, the global edge numbering for lines —
// so when the demand set changes, rows of surviving demands are copied
// verbatim and only the rows of newly added demands are computed (tree
// walks, path materialization). Both rebuilds here hand the copy to the
// one row assembly Build runs (assemble), so the derived indexes
// (InstsOf/GroupInsts/EdgeInsts), which embed instance ids that renumber
// on any removal, are repacked by the same finalize, and line groups,
// which anchor on the global minimum instance length Lmin (§7 length
// doubling), are recomputed for every row as a fresh Build would.

import (
	"fmt"

	"treesched/internal/instance"
)

// sameDemand reports whether a surviving demand's payload is unchanged
// (IDs are renumbered by the splice, so they are not compared).
func sameDemand(a, b instance.Demand) bool {
	if a.U != b.U || a.V != b.V ||
		a.Release != b.Release || a.Deadline != b.Deadline || a.ProcTime != b.ProcTime ||
		a.Profit != b.Profit || a.Height != b.Height || len(a.Access) != len(b.Access) {
		return false
	}
	for i := range a.Access {
		if a.Access[i] != b.Access[i] {
			return false
		}
	}
	return true
}

// WithDelta builds the full model of p incrementally from m. p must share
// m's networks (same trees or timeline, same capacities) and differ only
// in its demand list; oldOf maps the splice: oldOf[a] is the demand id of
// m.P whose rows are copied for p's demand a, or -1 when a is newly
// added. m must be a full model (no Filter, no CaptureWingsPi).
//
// The result is identical — field for field, row for row — to
// Build(p, Options{Decomps: m.Decomps}): surviving rows are copied, new
// rows are computed by the same assembly Build runs, and only the
// computed rows are re-checked. The equivalence suite in internal/core
// asserts byte-identical solver output over fuzzed delta sequences.
func (m *Model) WithDelta(p *instance.Problem, oldOf []int32) (*Model, error) {
	if m.filtered || m.captureWings {
		return nil, fmt.Errorf("model: WithDelta requires a full model (filtered=%t captureWings=%t)", m.filtered, m.captureWings)
	}
	if p.Kind != m.P.Kind {
		return nil, fmt.Errorf("model: WithDelta across kinds (%v -> %v)", m.P.Kind, p.Kind)
	}
	if p.EdgeSpace() != m.EdgeSpace {
		return nil, fmt.Errorf("model: WithDelta changed the edge space (%d -> %d); networks must be fixed", m.EdgeSpace, p.EdgeSpace())
	}
	if len(oldOf) != len(p.Demands) {
		return nil, fmt.Errorf("model: oldOf has %d entries for %d demands", len(oldOf), len(p.Demands))
	}

	nm := &Model{
		P:          p,
		NumDemands: len(p.Demands),
		EdgeSpace:  m.EdgeSpace,
		Cap:        m.Cap, // networks fixed: capacities shared, immutable
		Decomps:    m.Decomps,
	}

	// The new instance list in canonical (demand, access, start) order,
	// with each row's source: the old instance copied into new instance
	// i, or ^k for the k-th instance of the newly added demands.
	insts := make([]instance.Inst, 0, len(m.Insts))
	src := make([]int32, 0, len(m.Insts))
	computed := int32(0)
	for a, old := range oldOf {
		d := p.Demands[a]
		if d.ID != a {
			return nil, fmt.Errorf("model: demand %d has ID %d (the splice must renumber)", a, d.ID)
		}
		if old >= 0 {
			if int(old) >= len(m.P.Demands) {
				return nil, fmt.Errorf("model: oldOf[%d]=%d outside the %d old demands", a, old, len(m.P.Demands))
			}
			if !sameDemand(m.P.Demands[old], d) {
				return nil, fmt.Errorf("model: demand %d claims to copy old demand %d but the payload changed", a, old)
			}
			for _, i := range m.InstsOf.Row(old) {
				di := m.Insts[i]
				di.ID = int32(len(insts))
				di.Demand = int32(a)
				insts = append(insts, di)
				src = append(src, i)
			}
		} else {
			if err := p.ValidateDemand(a, d); err != nil {
				return nil, err
			}
			start := len(insts)
			insts = p.ExpandDemand(insts, d)
			for range insts[start:] {
				src = append(src, ^computed)
				computed++
			}
		}
	}
	nm.Insts = insts
	if err := nm.assemble(m, src, 1, nil, nil); err != nil {
		return nil, err
	}
	return nm, nil
}

// FilterCopy builds the sub-model keeping the instances where keep is
// true, by copying rows out of m instead of re-running the per-instance
// computations — the layered rows are per-instance functions, so the
// result equals Build with Options.Filter (instances renumbered dense,
// demand ids preserved). Line groups are recomputed against the
// sub-model's own Lmin, exactly as a filtered Build would.
func (m *Model) FilterCopy(keep func(instance.Inst) bool) (*Model, error) {
	nm := &Model{
		P:            m.P,
		NumDemands:   m.NumDemands,
		EdgeSpace:    m.EdgeSpace,
		Cap:          m.Cap,
		Decomps:      m.Decomps,
		captureWings: m.captureWings,
		filtered:     true,
	}
	src := make([]int32, 0, len(m.Insts))
	for i := range m.Insts {
		if keep(m.Insts[i]) {
			src = append(src, int32(i))
		}
	}
	nm.Insts = make([]instance.Inst, len(src))
	for i, s := range src {
		nm.Insts[i] = m.Insts[s]
		nm.Insts[i].ID = int32(i)
	}
	if err := nm.assemble(m, src, 1, nil, nil); err != nil {
		return nil, err
	}
	return nm, nil
}
