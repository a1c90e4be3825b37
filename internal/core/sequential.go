package core

import (
	"cmp"
	"fmt"

	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/model"
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
	opts = opts.withDefaults()
	p := c.p
	if p.Kind != instance.KindTree {
		return nil, fmt.Errorf("core: Sequential on %v problem", p.Kind)
	}
	if !p.UnitHeight() {
		return nil, fmt.Errorf("core: Sequential requires unit heights")
	}
	sm, err := telModel(opts.Telemetry, c.sequentialModel)
	if err != nil {
		return nil, err
	}
	v := variant{name: "sequential", rule: lp.Unit{}, sched: Schedule{Lambda: 1}, bound: 3}
	if len(p.Trees) == 1 {
		v.rule, v.bound = lp.UnitNoAlpha{}, 2
	}
	// σ(T_q): instances of tree q ordered by descending capture depth
	// (= ascending group), ties by id; trees processed in index order,
	// one epoch each.
	return sequentialPass(sm, v, opts, func(m *model.Model, a, b int32) int {
		if d := cmp.Compare(m.Insts[a].Net, m.Insts[b].Net); d != 0 {
			return d
		}
		if d := cmp.Compare(m.Group[a], m.Group[b]); d != 0 {
			return d
		}
		return cmp.Compare(a, b)
	}, func(m *model.Model, i int32) int { return int(m.Insts[i].Net) + 1 })
}

// sequentialPass runs a λ = 1 sequential algorithm v on sm — Sequential
// and SequentialLine — and assembles its Result; v's schedule carries only
// λ = 1, since the pass is its first phase. The pass visits the instances
// in compare's order (sm.visitOrder), which must break its own ties: each
// instance not yet 1-satisfied is raised tight and pushed as a singleton
// step of epoch(i). One pass suffices: raising an instance never lowers
// any LHS, and every instance is examined in order — exactly the
// "earliest unsatisfied" loop of Figure 8. Like runPhases, the pass runs
// on the solverModel's pooled scratch (duals, stack, the set arena that
// holds the singletons, Phase2's buffers), and only the Result escapes.
func sequentialPass(sm *solverModel, v variant, opts Options, compare func(m *model.Model, a, b int32) int, epoch func(m *model.Model, i int32) int) (*Result, error) {
	m, tel := sm.m, opts.Telemetry
	order := sm.visitOrder(compare)
	var trace *Trace
	if opts.CollectTrace {
		trace = &Trace{}
	}
	sc := sm.acquire()
	defer sm.release(sc)
	sc.reset()
	duals := &sc.duals
	step := 0
	sp := tel.Begin("phase1")
	for _, i := range order {
		if lp.Satisfied(v.rule, m, duals, i, 1.0) {
			continue
		}
		step++
		delta := lp.Raise(v.rule, m, duals, i)
		k := epoch(m, i)
		if trace != nil {
			trace.Events = append(trace.Events, RaiseEvent{Inst: i, Delta: delta, Epoch: k, Stage: 1, Step: step})
		}
		sc.setArena = append(sc.setArena, i)
		n := len(sc.setArena)
		sc.stack = append(sc.stack, StackEntry{Epoch: k, Stage: 1, Step: step, Set: sc.setArena[n-1 : n : n]})
	}
	if tel != nil {
		tel.Add(sp, "raises", int64(step))
	}
	tel.End(sp)
	sp = tel.Begin("verify_lambda")
	err := v.certify(v.name+" (λ=1)", m, duals)
	tel.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tel.Begin("phase2")
	sel := phase2(m, sc.stack, sc.load, sc.used, sc.selected[:0])
	sc.selected = sel
	tel.End(sp)
	sp = tel.Begin("assemble")
	defer tel.End(sp)
	return v.assemble(v.name, m, duals, sel, trace), nil
}
