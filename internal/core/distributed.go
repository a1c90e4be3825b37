package core

import (
	"fmt"
	"math"

	"treesched/internal/dist"
	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/model"
)

// The distributed drivers in this file are thin configurations of the
// shared protocol engine in distproto.go: each contributes a rule, a
// schedule and a bound, exactly as the centralized drivers in solvers.go
// configure runPhases. The node-local dual arithmetic lives in
// distrule.go; the synchronous runtime the protocol executes on is
// internal/dist.

// DistributedResult couples an algorithm Result with the measured network
// cost of the message-passing execution.
type DistributedResult struct {
	*Result
	// Net reports communication rounds, messages, payload entries and
	// global aggregations measured by the simulator (see the internal/dist
	// package comment for the accounting rules).
	Net dist.Stats
}

// DistributedUnit runs the unit-height algorithm (§5 for trees, §7 for
// lines) as a real message-passing protocol on dist.Run: one protocol
// machine per processor, Luby MIS by priority exchange, dual raises
// propagated to resource-sharing neighbors, and a distributed
// reverse-stack second phase. With the same seed it selects exactly what
// TreeUnit/LineUnit select.
func (c *Compiled) DistributedUnit(opts Options) (*DistributedResult, error) {
	opts = opts.withDefaults()
	p := c.p
	if !p.UnitHeight() {
		return nil, fmt.Errorf("core: DistributedUnit requires unit heights")
	}
	sm, err := telModel(opts.Telemetry, c.fullModel)
	if err != nil {
		return nil, err
	}
	m := sm.m
	sched := NewSchedule(m, UnitXi(m.Delta), opts.Epsilon)
	name := "tree-unit"
	if p.Kind == instance.KindLine {
		name = "line-unit"
	}
	cfg := &distProtocol{
		name:  name,
		rule:  lp.Unit{},
		sched: sched,
		opts:  opts,
		bound: float64(m.Delta+1) / sched.Lambda,
	}
	return cfg.run(p, m)
}

// DistributedPanconesiSozio runs the single-stage line-network baseline of
// [15,16] as a message-passing protocol — historically the setting those
// papers targeted. Unit heights, line networks only.
func (c *Compiled) DistributedPanconesiSozio(opts Options) (*DistributedResult, error) {
	opts = opts.withDefaults()
	p := c.p
	if p.Kind != instance.KindLine {
		return nil, fmt.Errorf("core: DistributedPanconesiSozio is a line-network baseline (got %v)", p.Kind)
	}
	if !p.UnitHeight() {
		return nil, fmt.Errorf("core: DistributedPanconesiSozio requires unit heights")
	}
	if opts.FixedRounds {
		return nil, fmt.Errorf("core: FixedRounds requires a multi-stage schedule")
	}
	sm, err := telModel(opts.Telemetry, c.fullModel)
	if err != nil {
		return nil, err
	}
	m := sm.m
	lambda := 1 / (5 + opts.Epsilon)
	sched := NewSingleStageSchedule(m, lambda)
	cfg := &distProtocol{
		name:  "panconesi-sozio-unit",
		rule:  lp.Unit{},
		sched: sched,
		opts:  opts,
		bound: float64(m.Delta+1) / lambda,
	}
	return cfg.run(p, m)
}

// DistributedNarrow runs the §6.1 narrow-instance algorithm as a
// message-passing protocol; all demands must have effective height ≤ 1/2.
func (c *Compiled) DistributedNarrow(opts Options) (*DistributedResult, error) {
	opts = opts.withDefaults()
	sm, err := telModel(opts.Telemetry, c.fullModel)
	if err != nil {
		return nil, err
	}
	m := sm.m
	hmin, err := effHMin(m, "DistributedNarrow")
	if err != nil {
		return nil, err
	}
	sched, err := narrowSchedule(m, hmin, opts.Epsilon)
	if err != nil {
		return nil, err
	}
	cfg := &distProtocol{
		name:  "narrow",
		rule:  narrowRule(c.p),
		sched: sched,
		opts:  opts,
		bound: float64(2*m.Delta*m.Delta+1) / sched.Lambda,
	}
	return cfg.run(c.p, m)
}

// mergedDuals, when non-nil, receives the duals assembleDistributed
// merged, before the certificate check. It is a test seam: nothing but
// the core tests sets it, and they run one solve at a time.
var mergedDuals func(*lp.Duals)

// assembleDistributed merges per-node state into a Result: global duals are
// reconstructed (and their per-edge copies cross-checked), the slackness
// certificate verified, and the union of selections collected.
//
// β is merged by walking each processor's relevant-edge row in processor
// order: an edge takes the copy of the first processor that has it, and
// every later copy must agree within 1e-6. Whoever raises an edge shares
// its network with every processor that has the edge on a path, so all
// of them receive the raise in the step it happens; one step's winners
// are independent and so raise disjoint edges. Every copy of an edge
// therefore receives the same increments in the same order, and an edge
// no raise touched is zero in every copy.
func assembleDistributed(name string, m *model.Model, rule lp.Rule, sched Schedule, nodes []*nodeState, stats dist.Stats, bound float64) (*DistributedResult, error) {
	duals := lp.NewDuals(m)
	seen := make([]bool, len(duals.Beta))
	for u, ns := range nodes {
		if ns == nil {
			continue
		}
		duals.Alpha[u] = ns.alpha
		for s, e := range ns.edges {
			v := ns.beta[s]
			if !seen[e] {
				seen[e] = true
				duals.Beta[e] = v
			} else if prev := duals.Beta[e]; math.Abs(prev-v) > 1e-6*(1+math.Abs(prev)) {
				return nil, fmt.Errorf("core: distributed β copies diverged on edge %d: %g vs %g", e, prev, v)
			}
		}
	}
	if mergedDuals != nil {
		mergedDuals(duals)
	}
	if len(m.Insts) > 0 {
		if err := lp.VerifyLambdaSatisfied(rule, m, duals, sched.Lambda); err != nil {
			return nil, fmt.Errorf("core: %s (distributed): %w: %v", name, ErrCertificate, err)
		}
	}
	res := &Result{Name: name + "-distributed", Lambda: sched.Lambda, Bound: bound, Model: m}
	for _, ns := range nodes {
		if ns == nil {
			continue
		}
		for _, i := range ns.selected {
			res.Selected = append(res.Selected, m.Insts[i])
			res.Profit += m.Insts[i].Profit
		}
	}
	res.DualUB = lp.DualObjective(rule, m, duals) / sched.Lambda
	if res.Profit > 0 {
		res.CertifiedRatio = res.DualUB / res.Profit
	}
	return &DistributedResult{Result: res, Net: stats}, nil
}
