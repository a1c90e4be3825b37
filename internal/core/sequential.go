package core

import (
	"fmt"
	"sort"

	"treesched/internal/instance"
	"treesched/internal/lp"
)

// Sequential runs the Appendix-A sequential algorithm for the unit-height
// case of tree networks: root-fixing decompositions, instances processed
// tree by tree in descending capture depth, singleton raises with
// π(d) = wings of the capture node (∆=2), slackness λ=1. The guarantee is
// 3 (Lemma 3.1 with ∆=2, λ=1), improving to 2 when there is a single
// tree-network (the α variables are dropped, matching Lewin-Eytan et al.).
// It uses the Compiled's lazily built Appendix-A model (root-fixing
// decomposition, capture-wing critical sets), not the full model.
func (c *Compiled) Sequential(opts Options) (*Result, error) {
	opts = c.prep(opts)
	p := c.p
	if p.Kind != instance.KindTree {
		return nil, fmt.Errorf("core: Sequential on %v problem", p.Kind)
	}
	if !p.UnitHeight() {
		return nil, fmt.Errorf("core: Sequential requires unit heights")
	}
	tel := opts.Telemetry
	sm, err := telModel(tel, c.sequentialModel)
	if err != nil {
		return nil, err
	}
	m := sm.m

	var rule lp.Rule = lp.Unit{}
	bound := 3.0
	if len(p.Trees) == 1 {
		rule = lp.UnitNoAlpha{}
		bound = 2.0
	}

	// σ(T_q): instances of tree q ordered by descending capture depth
	// (= ascending group), ties by id; trees processed in index order.
	order := make([]int32, len(m.Insts))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if m.Insts[ia].Net != m.Insts[ib].Net {
			return m.Insts[ia].Net < m.Insts[ib].Net
		}
		if m.Group[ia] != m.Group[ib] {
			return m.Group[ia] < m.Group[ib]
		}
		return ia < ib
	})

	duals := lp.NewDuals(m)
	var trace *Trace
	if opts.CollectTrace {
		trace = &Trace{}
	}
	var stack []StackEntry
	step := 0
	sp := tel.Begin("phase1")
	// One pass suffices: raising an instance never lowers any LHS, and
	// every instance is examined in σ order — exactly the "earliest
	// unsatisfied" loop of Figure 8.
	for _, i := range order {
		if lp.Satisfied(rule, m, duals, i, 1.0) {
			continue
		}
		step++
		delta := rule.Raise(m, duals, i)
		if trace != nil {
			trace.Events = append(trace.Events, RaiseEvent{
				Inst: i, Delta: delta,
				Epoch: int(m.Insts[i].Net) + 1, Stage: 1, Step: step,
			})
		}
		stack = append(stack, StackEntry{
			Epoch: int(m.Insts[i].Net) + 1, Stage: 1, Step: step,
			Set: []int32{i},
		})
	}
	if tel != nil {
		tel.Add(sp, "raises", int64(step))
	}
	tel.End(sp)
	sp = tel.Begin("verify_lambda")
	if err := lp.VerifyLambdaSatisfied(rule, m, duals, 1.0); err != nil {
		tel.End(sp)
		return nil, fmt.Errorf("core: sequential (λ=1): %w: %v", ErrCertificate, err)
	}
	tel.End(sp)
	sp = tel.Begin("phase2")
	sel := Phase2(m, stack)
	tel.End(sp)
	sp = tel.Begin("assemble")
	defer tel.End(sp)
	res := &Result{
		Name:   "sequential",
		Lambda: 1,
		Bound:  bound,
		Trace:  trace,
		Model:  m,
	}
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
