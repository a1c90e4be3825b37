package core

import (
	"fmt"

	"treesched/internal/dist"
	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/model"
)

// The distributed drivers in this file run the variants of solvers.go —
// the same declaration the centralized drivers run — on the shared
// protocol engine in distproto.go. A processor's state lives in
// distrule.go, and its dual arithmetic is the lp.Rule the centralized
// drivers run, over the processor's β copies; the synchronous runtime the
// protocol executes on is internal/dist.

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
	if !c.p.UnitHeight() {
		return nil, fmt.Errorf("core: DistributedUnit requires unit heights")
	}
	sm, err := telModel(opts.Telemetry, c.fullModel)
	if err != nil {
		return nil, err
	}
	name := "tree-unit"
	if c.p.Kind == instance.KindLine {
		name = "line-unit"
	}
	return runProtocol(c.p, sm.m, unitVariant(name, sm.m, opts.Epsilon), opts)
}

// DistributedPanconesiSozio runs the single-stage line-network baseline of
// [15,16] as a message-passing protocol — historically the setting those
// papers targeted. Unit heights, line networks only; its single-stage
// schedule has no fixed-rounds form.
func (c *Compiled) DistributedPanconesiSozio(opts Options) (*DistributedResult, error) {
	opts = opts.withDefaults()
	if c.p.Kind != instance.KindLine {
		return nil, fmt.Errorf("core: DistributedPanconesiSozio is a line-network baseline (got %v)", c.p.Kind)
	}
	if !c.p.UnitHeight() {
		return nil, fmt.Errorf("core: DistributedPanconesiSozio requires unit heights")
	}
	sm, err := telModel(opts.Telemetry, c.fullModel)
	if err != nil {
		return nil, err
	}
	return runProtocol(c.p, sm.m, psVariant(sm.m, opts.Epsilon), opts)
}

// DistributedNarrow runs the §6.1 narrow-instance algorithm as a
// message-passing protocol; all demands must have effective height ≤ 1/2.
func (c *Compiled) DistributedNarrow(opts Options) (*DistributedResult, error) {
	opts = opts.withDefaults()
	sm, err := telModel(opts.Telemetry, c.fullModel)
	if err != nil {
		return nil, err
	}
	v, err := narrowVariant(c.p, sm.m, opts.Epsilon, "DistributedNarrow")
	if err != nil {
		return nil, err
	}
	return runProtocol(c.p, sm.m, v, opts)
}

// mergedDuals, when non-nil, receives the duals assembleDistributed
// merged, before the certificate check. It is a test seam: nothing but
// the core tests sets it, and they run one solve at a time.
var mergedDuals func(*lp.Duals)

// assembleDistributed merges the processors' state into a Result: global
// duals are reconstructed (and their per-edge copies cross-checked), the
// slackness certificate verified, and the union of selections collected
// in processor order.
//
// β is merged by walking each processor's relevant-edge row in processor
// order: an edge takes the copy of the first processor that has it, and
// every later copy must equal it bit for bit. Whoever raises an edge
// shares its network with every processor that has the edge on a path,
// so all of them receive the raise in the step it happens; one step's
// winners are independent and so raise disjoint edges. Every copy of an
// edge therefore receives the same increments in the same order, and an
// edge no raise touched is zero in every copy. A NaN copy compares
// unequal to every copy, so it fails the merge too.
func assembleDistributed(m *model.Model, v *variant, machines []*protoEngine, stats dist.Stats) (*DistributedResult, error) {
	duals := lp.NewDuals(m)
	seen := make([]bool, len(duals.Beta))
	sel := make([]int32, 0, len(machines))
	for u, e := range machines {
		if e == nil {
			continue
		}
		ns := &e.ns
		duals.Alpha[u] = ns.alpha
		for s, edge := range ns.edges {
			b := ns.beta[s]
			if !seen[edge] {
				seen[edge] = true
				duals.Beta[edge] = b
			} else if prev := duals.Beta[edge]; b != prev {
				return nil, fmt.Errorf("core: distributed β copies diverged on edge %d: %g vs %g", edge, prev, b)
			}
		}
		sel = append(sel, ns.selected...)
	}
	if mergedDuals != nil {
		mergedDuals(duals)
	}
	if err := v.certify(v.name+" (distributed)", m, duals); err != nil {
		return nil, err
	}
	return &DistributedResult{Result: v.assemble(v.name+"-distributed", m, duals, sel, nil), Net: stats}, nil
}
