package model

// Incremental model rebuilds. A compiled Model is a per-instance table
// (path, π(d), group) plus derived indexes; the table rows are pure
// per-instance functions of the fixed network structure — the tree
// decompositions for tree problems, the global edge numbering for lines —
// so when the demand set changes, rows of surviving demands are copied
// verbatim and only the rows of newly added demands are computed (tree
// walks, path materialization). The derived indexes
// (InstsOf/GroupInsts/EdgeInsts) and the conflict clique cover embed
// instance ids, which renumber on any removal, so they are repacked by
// the same linear two-pass bucket builds a fresh compile uses — cheap
// next to the per-row tree walks the copy avoids.
//
// The one non-local row component is the line-network group, which
// depends on the global minimum instance length Lmin (§7 length
// doubling): WithDelta recomputes every line group from the new Lmin in
// one O(n) integer pass, keeping the result identical to a fresh Build.

import (
	"fmt"

	"treesched/internal/instance"
	"treesched/internal/layered"
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
// rows are computed by the same per-instance functions Build uses, and
// the derived state is produced by the shared finalize step. The
// equivalence suite in internal/core asserts byte-identical solver output
// over fuzzed delta sequences.
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
		MaxCap:     m.MaxCap,
		Decomps:    m.Decomps,
	}

	// Pass 1: the new instance list in canonical (demand, access, start)
	// order, with provenance. srcOld[i] is the old instance copied into
	// new instance i, or -1 for instances of newly added demands.
	insts := make([]instance.Inst, 0, len(m.Insts))
	srcOld := make([]int32, 0, len(m.Insts))
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
				srcOld = append(srcOld, i)
			}
		} else {
			if err := p.ValidateDemand(a, d); err != nil {
				return nil, err
			}
			start := len(insts)
			insts = p.ExpandDemand(insts, d)
			for range insts[start:] {
				srcOld = append(srcOld, -1)
			}
		}
	}
	nm.Insts = insts

	// Pass 2: compute the fresh rows (the only tree walks of the rebuild).
	var freshPaths, freshPis [][]int32
	var freshGroups []int32
	pathTotal, piTotal := 0, 0
	for i := range insts {
		if s := srcOld[i]; s >= 0 {
			pathTotal += m.Paths.RowLen(s)
			piTotal += m.Pi.RowLen(s)
			continue
		}
		path := p.PathEdges(insts[i])
		var g int32
		var pi []int32
		if p.Kind == instance.KindTree {
			g, pi = layered.TreeRow(p, insts[i], m.Decomps[insts[i].Net], false)
		} else {
			pi = layered.LinePi(p, insts[i])
		}
		freshPaths = append(freshPaths, path)
		freshPis = append(freshPis, pi)
		freshGroups = append(freshGroups, g)
		pathTotal += len(path)
		piTotal += len(pi)
	}

	// The delta path runs per re-solve, so the whole index rebuild is
	// carved out of one slab allocation and assembled by closure-free
	// passes. Semantics are pinned to Build's by the WithDelta-vs-Build
	// model-equality tests. Layout (n insts, D demands, E edges, P path
	// entries, Q π entries; GroupInsts needs NumGroups, computed below):
	n := len(insts)
	D, E := nm.NumDemands, nm.EdgeSpace
	slab := newI32Slab(3*(n+1) + 2*pathTotal + piTotal + (D + 1) + n + 2*E + 1)
	nm.Paths = CSR{Off: slab.take(n + 1), Data: slab.take(pathTotal)}
	nm.Pi = CSR{Off: slab.take(n + 1), Data: slab.take(piTotal)}
	nm.Group = slab.take(n)

	// Pass 3: assemble the row CSRs — copied rows splice in verbatim.
	fresh, pOff, qOff := 0, 0, 0
	for i := range insts {
		var path, pi []int32
		if s := srcOld[i]; s >= 0 {
			path, pi = m.Paths.Row(s), m.Pi.Row(s)
			nm.Group[i] = m.Group[s]
		} else {
			path, pi = freshPaths[fresh], freshPis[fresh]
			nm.Group[i] = freshGroups[fresh]
			fresh++
		}
		pOff += copy(nm.Paths.Data[pOff:], path)
		qOff += copy(nm.Pi.Data[qOff:], pi)
		nm.Paths.Off[i+1] = int32(pOff)
		nm.Pi.Off[i+1] = int32(qOff)
	}

	// Line groups depend on the global Lmin; recompute them all whenever
	// the instance set changed (O(n) integer pass, no allocation).
	if p.Kind == instance.KindLine {
		lmin := layered.LineLmin(insts)
		for i := range insts {
			nm.Group[i] = layered.LineGroup(insts[i].Len(), lmin)
		}
	}

	nm.deriveScalars()

	// InstsOf of a full model is the identity permutation split at the
	// demand block boundaries (instances are generated in demand order).
	nm.InstsOf = CSR{Off: slab.take(D + 1), Data: slab.take(n)}
	for i := range insts {
		nm.InstsOf.Data[i] = int32(i)
	}
	for i, a := 0, 0; a < D; a++ {
		for i < n && insts[i].Demand == int32(a) {
			i++
		}
		nm.InstsOf.Off[a+1] = int32(i)
	}

	if err := nm.checkRows(srcOld); err != nil {
		return nil, err
	}

	// GroupInsts: counting bucket build, no closures. The slab cannot
	// serve it (NumGroups is only known now), but it is two small
	// allocations.
	G := nm.NumGroups
	gOff := make([]int32, G+1)
	for i := range insts {
		gOff[nm.Group[i]]++ // count group g at index g (1-based groups)
	}
	for g := 0; g < G; g++ {
		gOff[g+1] += gOff[g]
	}
	gData := make([]int32, n)
	gNext := gOff // gOff[g] is the write cursor of group g+1's bucket
	for i := range insts {
		g := nm.Group[i] - 1
		gData[gNext[g]] = int32(i)
		gNext[g]++
	}
	// gNext[g] has advanced to the end of bucket g: shift back into Off
	// form by prepending 0.
	off := make([]int32, G+1)
	copy(off[1:], gNext[:G])
	nm.GroupInsts = CSR{Off: off, Data: gData}

	// EdgeInsts: the Paths transpose, built by count/prefix/scatter over
	// the slab rows.
	eOff := slab.take(E + 1)
	for _, e := range nm.Paths.Data {
		eOff[e+1]++
	}
	for e := 0; e < E; e++ {
		eOff[e+1] += eOff[e]
	}
	eData := slab.take(pathTotal)
	eNext := slab.take(E)
	copy(eNext, eOff[:E])
	for i := 0; i < n; i++ {
		for _, e := range nm.Paths.Row(int32(i)) {
			eData[eNext[e]] = int32(i)
			eNext[e]++
		}
	}
	nm.EdgeInsts = CSR{Off: eOff, Data: eData}
	return nm, nil
}

// i32Slab carves many exact-size int32 slices out of one allocation —
// the delta rebuild's index arrays are all sized up front, so the whole
// derived state costs one malloc instead of a dozen.
type i32Slab struct{ buf []int32 }

func newI32Slab(total int) *i32Slab { return &i32Slab{buf: make([]int32, total)} }

func (s *i32Slab) take(n int) []int32 {
	if len(s.buf) < n {
		// Sizing bug fallback: stay correct, pay an allocation.
		return make([]int32, n)
	}
	out := s.buf[:n:n]
	s.buf = s.buf[n:]
	return out
}

// FilterCopy builds the sub-model keeping the instances where keep is
// true, by copying rows out of m instead of re-running the per-instance
// computations — the layered rows are per-instance functions, so the
// result equals Build with Options.Filter (instances renumbered dense,
// demand ids preserved) at the cost of a few linear passes. Line groups
// are recomputed against the sub-model's own Lmin, exactly as a filtered
// Build would.
func (m *Model) FilterCopy(keep func(instance.Inst) bool) (*Model, error) {
	nm := &Model{
		P:            m.P,
		NumDemands:   m.NumDemands,
		EdgeSpace:    m.EdgeSpace,
		Cap:          m.Cap,
		MaxCap:       m.MaxCap,
		Decomps:      m.Decomps,
		captureWings: m.captureWings,
		filtered:     true,
	}
	kept := make([]int32, 0, len(m.Insts))
	pathTotal, piTotal := 0, 0
	for i := range m.Insts {
		if keep(m.Insts[i]) {
			kept = append(kept, int32(i))
			pathTotal += m.Paths.RowLen(int32(i))
			piTotal += m.Pi.RowLen(int32(i))
		}
	}
	n := len(kept)
	nm.Insts = make([]instance.Inst, n)
	nm.Paths = CSR{Off: make([]int32, n+1), Data: make([]int32, 0, pathTotal)}
	nm.Pi = CSR{Off: make([]int32, n+1), Data: make([]int32, 0, piTotal)}
	nm.Group = make([]int32, n)
	for i, s := range kept {
		nm.Insts[i] = m.Insts[s]
		nm.Insts[i].ID = int32(i)
		nm.Paths.Data = append(nm.Paths.Data, m.Paths.Row(s)...)
		nm.Pi.Data = append(nm.Pi.Data, m.Pi.Row(s)...)
		nm.Paths.Off[i+1] = int32(len(nm.Paths.Data))
		nm.Pi.Off[i+1] = int32(len(nm.Pi.Data))
		nm.Group[i] = m.Group[s]
	}
	if m.P.Kind == instance.KindLine {
		lmin := layered.LineLmin(nm.Insts)
		for i := range nm.Insts {
			nm.Group[i] = layered.LineGroup(nm.Insts[i].Len(), lmin)
		}
	}
	if err := nm.finalize(1); err != nil {
		return nil, err
	}
	return nm, nil
}
