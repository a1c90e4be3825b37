// Package verify checks feasibility of solutions against the original
// problem definition (§2): accessibility, one placement per demand, window
// containment, endpoint consistency, and per-edge bandwidth.
package verify

import (
	"fmt"
	"slices"

	"treesched/internal/instance"
)

// tol absorbs floating-point accumulation in load sums.
const tol = 1e-9

// Solution validates a selected instance set against a valid problem p.
// It returns nil when the solution is feasible. The per-demand and
// per-edge state is dense, and every path is written into one reused
// buffer, so the allocations do not grow with the selection.
func Solution(p *instance.Problem, sel []instance.Inst) error {
	seen := make([]bool, len(p.Demands))
	load := make([]float64, p.EdgeSpace())
	var path []int32
	for _, d := range sel {
		if int(d.Demand) < 0 || int(d.Demand) >= len(p.Demands) {
			return fmt.Errorf("verify: instance references demand %d of %d", d.Demand, len(p.Demands))
		}
		dem := p.Demands[d.Demand]
		if seen[d.Demand] {
			return fmt.Errorf("verify: demand %d scheduled twice", d.Demand)
		}
		seen[d.Demand] = true

		// Accessibility (§2 condition i).
		ok := false
		for _, q := range dem.Access {
			if q == int(d.Net) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("verify: demand %d scheduled on inaccessible network %d", d.Demand, d.Net)
		}

		if d.Height != dem.Height {
			return fmt.Errorf("verify: demand %d height changed: %g vs %g", d.Demand, d.Height, dem.Height)
		}

		switch p.Kind {
		case instance.KindTree:
			if int(d.U) != dem.U || int(d.V) != dem.V {
				return fmt.Errorf("verify: demand %d endpoints (%d,%d) differ from (%d,%d)",
					d.Demand, d.U, d.V, dem.U, dem.V)
			}
		case instance.KindLine:
			if int(d.U) < dem.Release || int(d.V) > dem.Deadline {
				return fmt.Errorf("verify: demand %d run [%d,%d] outside window [%d,%d]",
					d.Demand, d.U, d.V, dem.Release, dem.Deadline)
			}
			if int(d.Len()) != dem.ProcTime {
				return fmt.Errorf("verify: demand %d runs %d slots, needs %d", d.Demand, d.Len(), dem.ProcTime)
			}
		}

		// Bandwidth (§2 condition ii). The instance's network and
		// endpoints passed the checks above, so its path lies in p's
		// edge space.
		n := p.PathLen(d)
		path = slices.Grow(path[:0], n)[:n]
		p.FillPathEdges(path, d)
		for _, e := range path {
			load[e] += d.Height
			if load[e] > p.Capacity(e)+tol {
				return fmt.Errorf("verify: edge %d overloaded: %g > capacity %g", e, load[e], p.Capacity(e))
			}
		}
	}
	return nil
}

// EdgeDisjoint additionally checks the unit-height reading of feasibility:
// no two selected instances share an edge at all.
func EdgeDisjoint(p *instance.Problem, sel []instance.Inst) error {
	owner := make(map[int32]int32)
	for _, d := range sel {
		for _, e := range p.PathEdges(d) {
			if prev, dup := owner[e]; dup {
				return fmt.Errorf("verify: demands %d and %d share edge %d", prev, d.Demand, e)
			}
			owner[e] = d.Demand
		}
	}
	return nil
}
