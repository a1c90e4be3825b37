package core

import (
	"fmt"
	"sort"

	"treesched/internal/instance"
	"treesched/internal/lp"
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
	opts = c.prep(opts)
	p := c.p
	if p.Kind != instance.KindLine {
		return nil, fmt.Errorf("core: SequentialLine on %v problem", p.Kind)
	}
	if !p.UnitHeight() {
		return nil, fmt.Errorf("core: SequentialLine requires unit heights")
	}
	tel := opts.Telemetry
	sm, err := telModel(tel, c.sequentialLineModel)
	if err != nil {
		return nil, err
	}
	m := sm.m

	order := make([]int32, len(m.Insts))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if m.Insts[ia].V != m.Insts[ib].V {
			return m.Insts[ia].V < m.Insts[ib].V
		}
		return ia < ib
	})

	rule := lp.Unit{}
	duals := lp.NewDuals(m)
	var trace *Trace
	if opts.CollectTrace {
		trace = &Trace{}
	}
	var stack []StackEntry
	step := 0
	sp := tel.Begin("phase1")
	for _, i := range order {
		if lp.Satisfied(rule, m, duals, i, 1.0) {
			continue
		}
		step++
		delta := rule.Raise(m, duals, i)
		if trace != nil {
			trace.Events = append(trace.Events, RaiseEvent{
				Inst: i, Delta: delta, Epoch: 1, Stage: 1, Step: step,
			})
		}
		stack = append(stack, StackEntry{Epoch: 1, Stage: 1, Step: step, Set: []int32{i}})
	}
	if tel != nil {
		tel.Add(sp, "raises", int64(step))
	}
	tel.End(sp)
	sp = tel.Begin("verify_lambda")
	if err := lp.VerifyLambdaSatisfied(rule, m, duals, 1.0); err != nil {
		tel.End(sp)
		return nil, fmt.Errorf("core: sequential-line (λ=1): %w: %v", ErrCertificate, err)
	}
	tel.End(sp)
	sp = tel.Begin("phase2")
	sel := Phase2(m, stack)
	tel.End(sp)
	sp = tel.Begin("assemble")
	defer tel.End(sp)
	res := &Result{Name: "sequential-line", Lambda: 1, Bound: 2, Trace: trace, Model: m}
	for _, i := range sel {
		res.Selected = append(res.Selected, m.Insts[i])
		res.Profit += m.Insts[i].Profit
	}
	res.DualUB = lp.DualObjective(rule, m, duals)
	if res.Profit > 0 {
		res.CertifiedRatio = res.DualUB / res.Profit
	}
	return res, nil
}
