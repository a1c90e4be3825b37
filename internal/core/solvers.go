package core

import (
	"fmt"

	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/model"
	"treesched/internal/obs"
	"treesched/internal/treedecomp"
)

// Result is the outcome of one algorithm run.
type Result struct {
	// Name of the algorithm variant.
	Name string
	// Selected holds the chosen demand instances (descriptors, so results
	// from split sub-runs can be merged).
	Selected []instance.Inst
	// Profit is the total profit of Selected.
	Profit float64
	// DualUB is an upper bound on p(Opt) certified by weak duality:
	// Σ dual objective / λ over the (sub)runs.
	DualUB float64
	// CertifiedRatio = DualUB / Profit ≥ p(Opt)/p(S): an instance-specific
	// certificate that the approximation bound held.
	CertifiedRatio float64
	// Bound is the paper's worst-case guarantee for this variant, e.g.
	// 7/(1−ε) for unit trees.
	Bound float64
	// Lambda is the verified slackness of the final dual assignment.
	Lambda float64
	// Trace is the raise history (nil unless requested).
	Trace *Trace
	// Model is the compiled model (nil for combined runs; see Parts).
	Model *model.Model
	// Parts holds the sub-results of combined (wide/narrow) runs.
	Parts []*Result
}

// Options configures a run.
type Options struct {
	// Epsilon is the ε of the (c+ε) guarantees. Default 0.25.
	Epsilon float64
	// Seed drives the deterministic Luby priorities.
	Seed uint64
	// CollectTrace records all raise events (needed by the interference
	// checker and the E8 experiment).
	CollectTrace bool
	// DecompKind overrides the tree decomposition (default ideal) for
	// ablations.
	DecompKind treedecomp.Kind
	// FixedRounds makes the distributed drivers run the paper's
	// deterministic schedule — exactly FixedSteps steps per stage and a
	// fixed Luby phase budget — eliminating global aggregations entirely
	// (§5 "Distributed Implementation": with pmax/pmin known, "we can
	// count the number of epochs, stages and iterations exactly"). The
	// execution differs from the adaptive one (different step numbering
	// feeds the priority function), but all certificates still hold.
	// Multi-stage schedules only. Ignored by centralized drivers.
	FixedRounds bool
	// DistWorkers selects the BSP engine of the distributed drivers:
	// ≥ 0 runs the sharded worker pool, < 0 the goroutine-per-processor
	// reference runtime (the benchmark anchor). A positive count is the
	// pool's worker count (capped at the processor count); 0, the
	// default, sizes the pool by the network (dist.PoolWorkers): one
	// worker per 2,000 processors, at most GOMAXPROCS, so a small network
	// runs on one goroutine and a 100k-processor one on GOMAXPROCS.
	// Stats and selections are byte-identical across all settings; only
	// execution cost differs. Ignored by centralized drivers.
	DistWorkers int
	// MaxNodes caps the search-tree size of the exact branch and bound
	// (0 = 50 million); past it Exact fails with ErrExactTooLarge.
	// Ignored by every other solver.
	MaxNodes int64
	// Telemetry, when non-nil, records a phase-level span timeline of the
	// solve — compile (with the model.BuildStats breakdown when this call
	// performed the build), Phase1 as one span per epoch (its stages,
	// steps, raises and Luby MIS phases summed into counters; per-stage
	// step counts are CollectTrace's), the λ-certificate verification,
	// Phase2 and result assembly, plus per-superstep round samples for the
	// distributed drivers. Telemetry is strictly read-only observation:
	// it never perturbs results (the equivalence suite pins byte-identical
	// output with and without it), and a nil Telemetry costs only
	// predictable nil-checks on the hot path (the alloc-budget tests pin
	// warm-solve allocation counts unchanged). A Trace belongs to one
	// solve call on one goroutine; concurrent solves need one Trace each.
	// The serving layer strips Telemetry from cache keys — it never
	// identifies a result.
	Telemetry *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.25
	}
	return o
}

// ErrCertificate tags slackness-certificate failures: the dual
// assignment produced by a run did not λ-satisfy every instance. This is
// an internal invariant violation (a solver bug), never a property of
// the input — callers serving requests should map it to a server-side
// error, not a client error.
var ErrCertificate = fmt.Errorf("slackness certificate failed")

// runPhases executes phase 1 + verification + phase 2 on a compiled model
// and assembles a Result. The solve runs entirely on the solverModel's
// pooled scratch: everything scratch-aliased (duals, stack, selection) is
// consumed before the deferred release, and only the Result escapes.
func runPhases(name string, sm *solverModel, rule lp.Rule, sched Schedule, opts Options, bound float64) (*Result, error) {
	m := sm.m
	tel := opts.Telemetry
	var trace *Trace
	if opts.CollectTrace {
		trace = &Trace{}
	}
	sc := sm.acquire()
	defer sm.release(sc)
	sp := tel.Begin("phase1")
	duals, stack, err := phase1(m, sm.misFn(), rule, sched, opts.Seed, trace, tel, sc)
	if err != nil {
		tel.End(sp)
		return nil, err
	}
	if tel != nil {
		tel.Add(sp, "stack_sets", int64(len(stack)))
	}
	tel.End(sp)
	sp = tel.Begin("verify_lambda")
	if len(m.Insts) > 0 {
		if err := lp.VerifyLambdaSatisfied(rule, m, duals, sched.Lambda); err != nil {
			tel.End(sp)
			return nil, fmt.Errorf("core: %s: %w: %v", name, ErrCertificate, err)
		}
	}
	tel.End(sp)
	sp = tel.Begin("phase2")
	sel := phase2(m, stack, sc.load, sc.used, sc.selected[:0])
	sc.selected = sel
	if tel != nil {
		tel.Add(sp, "selected", int64(len(sel)))
	}
	tel.End(sp)
	sp = tel.Begin("assemble")
	res := &Result{
		Name:   name,
		Lambda: sched.Lambda,
		Bound:  bound,
		Trace:  trace,
		Model:  m,
	}
	for _, i := range sel {
		res.Selected = append(res.Selected, m.Insts[i])
		res.Profit += m.Insts[i].Profit
	}
	res.DualUB = lp.DualObjective(rule, m, duals) / sched.Lambda
	if res.Profit > 0 {
		res.CertifiedRatio = res.DualUB / res.Profit
	}
	tel.End(sp)
	return res, nil
}

// TreeUnit runs the paper's main algorithm (§5, Theorem 5.3): the
// distributed (7+ε)-approximation for unit-height demands on tree
// networks, using the ideal tree decomposition (∆=6) and the multi-stage
// schedule (λ = 1−ε). This entry point uses the fast centralized driver;
// see DistributedUnit for the message-passing driver.
func (c *Compiled) TreeUnit(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if c.p.Kind != instance.KindTree {
		return nil, fmt.Errorf("core: TreeUnit on %v problem", c.p.Kind)
	}
	if !c.p.UnitHeight() {
		return nil, fmt.Errorf("core: TreeUnit requires unit heights; use TreeArbitrary")
	}
	sm, err := telModel(opts.Telemetry, c.fullModel)
	if err != nil {
		return nil, err
	}
	m := sm.m
	sched := NewSchedule(m, UnitXi(m.Delta), opts.Epsilon)
	bound := float64(m.Delta+1) / sched.Lambda
	return runPhases("tree-unit", sm, lp.Unit{}, sched, opts, bound)
}

// LineUnit runs the improved unit-height line-network algorithm with
// windows (§7, Theorem 7.1): ∆=3 length-doubling layers, λ = 1−ε, bound
// 4+ε (vs Panconesi–Sozio's 20+ε).
func (c *Compiled) LineUnit(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if c.p.Kind != instance.KindLine {
		return nil, fmt.Errorf("core: LineUnit on %v problem", c.p.Kind)
	}
	if !c.p.UnitHeight() {
		return nil, fmt.Errorf("core: LineUnit requires unit heights; use LineArbitrary")
	}
	sm, err := telModel(opts.Telemetry, c.fullModel)
	if err != nil {
		return nil, err
	}
	m := sm.m
	sched := NewSchedule(m, UnitXi(m.Delta), opts.Epsilon)
	bound := float64(m.Delta+1) / sched.Lambda
	return runPhases("line-unit", sm, lp.Unit{}, sched, opts, bound)
}

// narrowRule selects the capacity-aware rule when the problem declares
// non-uniform bandwidths.
func narrowRule(p *instance.Problem) lp.Rule {
	if p.Capacities != nil {
		return lp.Capacitated{}
	}
	return lp.Narrow{}
}

// NarrowOnly runs the §6.1 narrow-instance algorithm (Lemma 6.2) on a
// problem whose demands all have effective height ≤ 1/2. The guarantee is
// (2∆²+1)/(1−ε): 73+ε on trees, 19+ε on lines.
func (c *Compiled) NarrowOnly(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	sm, err := telModel(opts.Telemetry, c.fullModel)
	if err != nil {
		return nil, err
	}
	m := sm.m
	hmin, err := effHMin(m, "NarrowOnly")
	if err != nil {
		return nil, err
	}
	sched, err := narrowSchedule(m, hmin, opts.Epsilon)
	if err != nil {
		return nil, err
	}
	bound := float64(2*m.Delta*m.Delta+1) / sched.Lambda
	return runPhases("narrow", sm, narrowRule(c.p), sched, opts, bound)
}

// Arbitrary runs the combined arbitrary-height algorithm (§6, Theorem 6.3
// for trees; §7, Theorem 7.2 for lines): demands are classified wide
// (effective height > 1/2) or narrow, the unit-height algorithm handles
// the wide class, the narrow algorithm the rest, and per network the more
// profitable of the two sub-solutions is kept. Bounds: 80+ε (trees),
// 23+ε (lines). The demand-level wide/narrow classification keeps every
// demand entirely in one class, which the combining step relies on (§6
// "Overall Algorithm"); the two sub-models are built once per Compiled.
func (c *Compiled) Arbitrary(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	tel := opts.Telemetry
	sp := tel.Begin("compile")
	wideModel, narrowModel, err := c.splitModels()
	tel.End(sp)
	if err != nil {
		return nil, err
	}

	var parts []*Result
	if len(wideModel.m.Insts) > 0 {
		m := wideModel.m
		sched := NewSchedule(m, UnitXi(m.Delta), opts.Epsilon)
		r, err := runPhases("wide", wideModel, lp.Unit{}, sched, opts,
			float64(m.Delta+1)/sched.Lambda)
		if err != nil {
			return nil, err
		}
		parts = append(parts, r)
	}
	if len(narrowModel.m.Insts) > 0 {
		m := narrowModel.m
		hmin := 1.0
		for i := range m.Insts {
			if eff := m.EffHeight(int32(i)); eff < hmin {
				hmin = eff
			}
		}
		sched, err := narrowSchedule(m, hmin, opts.Epsilon)
		if err != nil {
			return nil, err
		}
		r, err := runPhases("narrow", narrowModel, narrowRule(c.p), sched, opts,
			float64(2*m.Delta*m.Delta+1)/sched.Lambda)
		if err != nil {
			return nil, err
		}
		parts = append(parts, r)
	}
	return combinePerNetwork(c.p, "arbitrary", parts)
}

// combinePerNetwork merges sub-results by keeping, for every network, the
// sub-solution with higher profit on that network (§6 "Overall
// Algorithm"). Feasibility holds because each sub-solution is feasible per
// network and the classes partition the demands.
func combinePerNetwork(p *instance.Problem, name string, parts []*Result) (*Result, error) {
	res := &Result{Name: name, Parts: parts, Lambda: 1}
	if len(parts) == 0 {
		return res, nil
	}
	if len(parts) == 1 {
		only := parts[0]
		return &Result{
			Name: name, Selected: only.Selected, Profit: only.Profit,
			DualUB: only.DualUB, CertifiedRatio: only.CertifiedRatio,
			Bound: only.Bound, Lambda: only.Lambda, Parts: parts,
		}, nil
	}
	r := p.NumNetworks()
	profitOn := make([][]float64, len(parts))
	for pi, part := range parts {
		profitOn[pi] = make([]float64, r)
		for _, d := range part.Selected {
			profitOn[pi][d.Net] += d.Profit
		}
	}
	for q := 0; q < r; q++ {
		best := 0
		for pi := range parts {
			if profitOn[pi][q] > profitOn[best][q] {
				best = pi
			}
		}
		for _, d := range parts[best].Selected {
			if int(d.Net) == q {
				res.Selected = append(res.Selected, d)
				res.Profit += d.Profit
			}
		}
	}
	res.Bound = 0
	for _, part := range parts {
		res.DualUB += part.DualUB
		res.Bound += part.Bound
		if part.Lambda < res.Lambda {
			res.Lambda = part.Lambda
		}
	}
	if res.Profit > 0 {
		res.CertifiedRatio = res.DualUB / res.Profit
	}
	return res, nil
}

// PanconesiSozioUnit is the baseline of [15,16] reformulated in the
// framework (see the paper's Remark after Theorem 5.3): the same
// length-doubling layered decomposition but a single stage per epoch with
// fixed threshold λ = 1/(5+ε), giving the guarantee 4(5+ε) = 20+ε on line
// networks. It is restricted to lines (∆=3): single-stage kill chains grow
// profits by (4+ε)/(∆+1) per kill, which only exceeds 1 when ∆ ≤ 3 —
// exactly why [16] could not go beyond line networks and the multi-stage
// schedule of §5 is needed for trees. The arbitrary-height baseline of
// [16] is not reproduced: the supplied text does not specify its raise
// rule (see DESIGN.md).
func (c *Compiled) PanconesiSozioUnit(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if c.p.Kind != instance.KindLine {
		return nil, fmt.Errorf("core: PanconesiSozioUnit is a line-network baseline (got %v)", c.p.Kind)
	}
	if !c.p.UnitHeight() {
		return nil, fmt.Errorf("core: PanconesiSozioUnit requires unit heights")
	}
	sm, err := telModel(opts.Telemetry, c.fullModel)
	if err != nil {
		return nil, err
	}
	m := sm.m
	lambda := 1 / (5 + opts.Epsilon)
	sched := NewSingleStageSchedule(m, lambda)
	bound := float64(m.Delta+1) / lambda
	return runPhases("panconesi-sozio-unit", sm, lp.Unit{}, sched, opts, bound)
}
