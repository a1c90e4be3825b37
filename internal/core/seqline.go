package core

import (
	"cmp"
	"fmt"

	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/model"
)

// SequentialLine runs the classical sequential 2-approximation for
// unit-height line networks with windows, in the style of Bar-Noy et al.
// and Berman–Dasgupta (§1 of the paper; both are reformulations of the
// same primal-dual idea the two-phase framework captures):
//
// Demand instances are processed in increasing order of their end slot.
// Any instance overlapping a previously processed one must contain that
// instance's end slot, so π(d) = {end(d)} satisfies the interference
// property with ∆ = 1, and λ = 1 as every constraint is made tight. By
// Lemma 3.1 the ratio is (∆+1)/λ = 2, matching [4,5]. The end-slot
// critical sets are materialized once in the Compiled's dedicated line
// model.
func (c *Compiled) SequentialLine(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	p := c.p
	if p.Kind != instance.KindLine {
		return nil, fmt.Errorf("core: SequentialLine on %v problem", p.Kind)
	}
	if !p.UnitHeight() {
		return nil, fmt.Errorf("core: SequentialLine requires unit heights")
	}
	sm, err := telModel(opts.Telemetry, c.sequentialLineModel)
	if err != nil {
		return nil, err
	}
	v := variant{name: "sequential-line", rule: lp.Unit{}, sched: Schedule{Lambda: 1}, bound: 2}
	return sequentialPass(sm, v, opts, func(m *model.Model, a, b int32) int {
		if d := cmp.Compare(m.Insts[a].V, m.Insts[b].V); d != 0 {
			return d
		}
		return cmp.Compare(a, b)
	}, func(*model.Model, int32) int { return 1 })
}
