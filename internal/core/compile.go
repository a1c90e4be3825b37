package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/model"
	"treesched/internal/obs"
	"treesched/internal/treedecomp"
)

// This file makes problem compilation a separable, reusable step: a
// Compiled holds every model.Build artifact the algorithm family may need
// for one problem — the full model, the §6 wide/narrow split, the
// Appendix-A sequential model and the end-slot line model — each built at
// most once and shared by all subsequent solves (compile once, solve
// many). The serving layer (internal/service) caches Compiled values
// keyed on a canonical problem hash.
//
// All models reachable from a Compiled are immutable after construction,
// so a single Compiled may serve concurrent solves.

// solverModel couples a compiled model with a pool of solve scratches,
// so a warm solve reuses duals, active flags, stacks and MIS buffers
// instead of reallocating them (see solveScratch). The Luby MIS needs no
// structure of its own: it reads the model's clique cover in place.
type solverModel struct {
	m     *model.Model
	stats model.BuildStats // per-phase build cost of m (zero for copies)
	pool  sync.Pool        // *solveScratch

	// order is the sequential pass's visiting order, sorted once: it
	// depends on the model alone (see visitOrder).
	orderOnce sync.Once
	order     []int32
}

// acquire returns a scratch sized for this model, reusing a pooled one
// when available. release returns it after the solve has finished with
// every scratch-aliased value (duals, stack, selection).
func (sm *solverModel) acquire() *solveScratch {
	if v := sm.pool.Get(); v != nil {
		return v.(*solveScratch)
	}
	return newSolveScratch(sm.m)
}

func (sm *solverModel) release(sc *solveScratch) { sm.pool.Put(sc) }

// visitOrder returns the model's instances sorted by compare, sorting
// them on the first call only: a sequential pass's order depends on the
// model alone, and each solverModel serves one sequential algorithm, so
// every call passes the same compare.
func (sm *solverModel) visitOrder(compare func(m *model.Model, a, b int32) int) []int32 {
	sm.orderOnce.Do(func() {
		m := sm.m
		sm.order = make([]int32, len(m.Insts))
		for i := range sm.order {
			sm.order[i] = int32(i)
		}
		slices.SortFunc(sm.order, func(a, b int32) int { return compare(m, a, b) })
	})
	return sm.order
}

// lazyModel builds a solverModel at most once. Build errors are cached
// too — they are deterministic properties of the problem, so retrying
// cannot succeed.
type lazyModel struct {
	once  sync.Once
	ready atomic.Bool
	sm    *solverModel
	err   error
}

// get builds through a closure that receives the BuildStats sink, so
// every lazy build's per-phase cost is captured on the solverModel and
// later solves can attach it to their compile spans.
func (l *lazyModel) get(build func(st *model.BuildStats) (*model.Model, error)) (*solverModel, error) {
	l.once.Do(func() {
		var st model.BuildStats
		m, err := build(&st)
		if err != nil {
			l.err = err
			return
		}
		l.sm = &solverModel{m: m, stats: st}
		l.ready.Store(true)
	})
	return l.sm, l.err
}

// peek returns the solver model if it has been built, nil otherwise —
// without triggering a build. The atomic publish in get/preset makes the
// read safe against a concurrent first build.
func (l *lazyModel) peek() *solverModel {
	if !l.ready.Load() {
		return nil
	}
	return l.sm
}

// preset installs an externally built solver model (the delta
// recompilation path), consuming the once so later get calls return it.
func (l *lazyModel) preset(sm *solverModel) {
	l.once.Do(func() {
		l.sm = sm
		l.ready.Store(true)
	})
}

// Compiled is the reusable compiled form of one problem under one tree
// decomposition. Obtain it with Compile; every centralized and
// distributed solver is available as a method. Methods ignore
// Options.DecompKind — the decomposition is fixed at Compile time.
// Every sub-model is built lazily on first use (each behind its own
// sync.Once, so building one never blocks solvers needing another), and
// algorithms that never touch the full model (Sequential,
// SequentialLine) pay only for their own compilation.
type Compiled struct {
	p      *instance.Problem
	decomp treedecomp.Kind

	full    lazyModel // all instances, the Compile-time decomposition
	seqTree lazyModel // Appendix A: root-fixing decomp, capture-wing π
	seqLine lazyModel // end-slot π singleton, ∆=1

	// The §6 wide/narrow split shares one classification pass, so the
	// two sub-models initialize together. splitReady publishes the built
	// split for race-free peeking (scratch migration in WithJobs).
	splitOnce    sync.Once
	splitReady   atomic.Bool
	wide, narrow *solverModel
	splitErr     error

	// Delta-recompilation state (WithJobs). decompsHint/seqDecompsHint
	// carry prebuilt tree decompositions across generations so a
	// generation whose parent built no full model never rebuilds them;
	// incremental records whether this Compiled was produced by the delta
	// path.
	decompsHint    []*treedecomp.Decomposition
	seqDecompsHint []*treedecomp.Decomposition
	incremental    bool

	// adoptWide/adoptNarrow hold solver scratches migrated from the
	// parent generation's wide/narrow sub-models, consumed (under
	// splitOnce) when this generation builds its own split.
	adoptWide, adoptNarrow *solveScratch

	// workers is the compile fan-out knob (model.Options.Workers
	// semantics: 0 = GOMAXPROCS, 1 or below = the serial oracle) of every
	// lazy model build this compilation triggers, carried to the
	// generations WithJobs derives. It only selects how many cores a build
	// spends — the built model is byte-identical at every setting (pinned
	// by the parallel-compile equivalence suite).
	workers int
}

// SetCompileWorkers fixes the compile fan-out for every lazy model build
// of this compilation and the generations derived from it: 0 (the
// default) uses GOMAXPROCS, 1 keeps the serial path, n uses n workers.
// Output never depends on the setting. Set it before the compilation is
// shared: it is not safe to call concurrently with a solve or WithJobs.
func (c *Compiled) SetCompileWorkers(w int) { c.workers = w }

// Compile validates p and prepares it for repeated solving. decomp
// selects the tree decomposition (zero value = KindIdeal, the paper's
// choice); it is ignored for line problems.
func Compile(p *instance.Problem, decomp treedecomp.Kind) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Compiled{p: p, decomp: decomp}, nil
}

// Problem returns the problem this compilation is bound to.
func (c *Compiled) Problem() *instance.Problem { return c.p }

// fullModel lazily builds the full model (all instances), reusing
// prebuilt tree decompositions when a previous generation supplies them.
// The build fans out across the compilation's workers; the resulting
// model is identical at any fan-out.
func (c *Compiled) fullModel() (*solverModel, error) {
	return c.full.get(func(st *model.BuildStats) (*model.Model, error) {
		return model.Build(c.p, model.Options{
			DecompKind: c.decomp,
			Decomps:    c.decompsHint,
			Workers:    c.workers,
			Stats:      st,
		})
	})
}

// telModel wraps a lazy model getter in a "compile" span on tel. The
// span times this call's share of compilation — near zero when the
// model is already built — while the attached build_* counters always
// describe the model's original build cost (model.BuildStats), so a
// trace can tell "compiled here" from "served from the compile cache".
func telModel(tel *obs.Trace, get func() (*solverModel, error)) (*solverModel, error) {
	if tel == nil {
		return get()
	}
	sp := tel.Begin("compile")
	sm, err := get()
	if err == nil && sm.stats.TotalNs > 0 {
		tel.Add(sp, "build_total_ns", sm.stats.TotalNs)
		tel.Add(sp, "build_decomp_ns", sm.stats.DecompNs)
		tel.Add(sp, "build_layer_ns", sm.stats.LayerNs)
		tel.Add(sp, "build_path_ns", sm.stats.PathNs)
		tel.Add(sp, "build_index_ns", sm.stats.IndexNs)
	}
	tel.End(sp)
	return sm, err
}

// Model returns the full compiled model, building it on first use.
func (c *Compiled) Model() (*model.Model, error) {
	sm, err := c.fullModel()
	if err != nil {
		return nil, err
	}
	return sm.m, nil
}

// splitModels lazily builds the §6 wide/narrow sub-models. The
// classification is demand-level: a demand is wide when any of its
// instances has effective height > 1/2.
func (c *Compiled) splitModels() (wide, narrow *solverModel, err error) {
	fullSM, err := c.fullModel()
	if err != nil {
		return nil, nil, err
	}
	c.splitOnce.Do(func() {
		full := fullSM.m
		wideDemand := make([]bool, len(c.p.Demands))
		for i := range full.Insts {
			if full.EffHeight(int32(i)) > 0.5+lp.Tol {
				wideDemand[full.Insts[i].Demand] = true
			}
		}
		// The sub-models are row copies of the full model: the layered
		// rows are per-instance functions, so filtering by copying (no
		// tree walks, no path rebuilds) produces the model a filtered
		// Build would — see model.FilterCopy.
		wm, err := full.FilterCopy(func(d instance.Inst) bool { return wideDemand[d.Demand] })
		if err != nil {
			c.splitErr = err
			return
		}
		nm, err := full.FilterCopy(func(d instance.Inst) bool { return !wideDemand[d.Demand] })
		if err != nil {
			c.splitErr = err
			return
		}
		c.wide, c.narrow = &solverModel{m: wm}, &solverModel{m: nm}
		// Delta generations migrate the parent's sub-model scratches so
		// the first re-solve of each class allocates like a warm solve.
		if c.adoptWide != nil {
			c.adoptWide.adapt(wm)
			c.wide.pool.Put(c.adoptWide)
			c.adoptWide = nil
		}
		if c.adoptNarrow != nil {
			c.adoptNarrow.adapt(nm)
			c.narrow.pool.Put(c.adoptNarrow)
			c.adoptNarrow = nil
		}
		c.splitReady.Store(true)
	})
	return c.wide, c.narrow, c.splitErr
}

// sequentialModel lazily builds the Appendix-A model: root-fixing
// decompositions and capture-wing critical sets (∆ ≤ 2). A delta
// generation reuses the parent's root-fixing decompositions.
func (c *Compiled) sequentialModel() (*solverModel, error) {
	return c.seqTree.get(func(st *model.BuildStats) (*model.Model, error) {
		return model.Build(c.p, model.Options{
			DecompKind:     treedecomp.KindRootFixing,
			CaptureWingsPi: true,
			Decomps:        c.seqDecompsHint,
			Workers:        c.workers,
			Stats:          st,
		})
	})
}

// sequentialLineModel lazily builds the Bar-Noy/Berman–Dasgupta line
// model: critical sets replaced by the end-slot singleton, ∆ = 1. The
// rewrite happens once here so the shared model is never mutated by a
// solve.
func (c *Compiled) sequentialLineModel() (*solverModel, error) {
	return c.seqLine.get(func(st *model.BuildStats) (*model.Model, error) {
		m, err := model.Build(c.p, model.Options{Workers: c.workers, Stats: st})
		if err != nil {
			return nil, err
		}
		pi := model.CSR{
			Off:  make([]int32, len(m.Insts)+1),
			Data: make([]int32, len(m.Insts)),
		}
		for i := range m.Insts {
			pi.Data[i] = c.p.GlobalEdge(int(m.Insts[i].Net), m.Insts[i].V)
			pi.Off[i+1] = int32(i + 1)
		}
		m.Pi = pi
		m.Delta = 1
		return m, nil
	})
}

// Incremental reports whether this Compiled was produced by the WithJobs
// delta path (false for fresh compiles and for generations whose parent
// had no full model) — the observability hook for session metrics and
// the online benchmark.
func (c *Compiled) Incremental() bool { return c.incremental }

// seqHint returns the best available root-fixing decompositions to carry
// into the next generation.
func (c *Compiled) seqHint() []*treedecomp.Decomposition {
	if sm := c.seqTree.peek(); sm != nil {
		return sm.m.Decomps
	}
	return c.seqDecompsHint
}

// WithJobs returns the compilation of the problem obtained by removing
// the demands whose current ids are listed in removed and appending the
// added demands (ids are reassigned; survivors keep their relative order
// and are renumbered densely, then added demands follow in input order).
// The networks — trees or timeline, and their capacities — are fixed for
// the lifetime of a session; only the demand set changes.
//
// When the full model of c has been built, the new model is rebuilt
// incrementally (model.WithDelta): rows of surviving demands are copied,
// only added demands pay tree walks and path materialization, the
// rebuilt indexes are the conflict clique cover the Luby MIS reads, and
// a pooled solver scratch migrates from c so the re-solve allocates like
// a warm solve. The delta runs the row assembly model.Build runs, so it
// never does more row work than a rebuild, at any churn. When c has no
// full model (it was never solved) the result is a fresh Compile that
// still reuses the tree decompositions. Either way the result is
// indistinguishable from Compile on the effective problem: the
// equivalence suite asserts byte-identical solver output.
func (c *Compiled) WithJobs(added []instance.Demand, removed []int) (*Compiled, error) {
	old := len(c.p.Demands)
	rm := make([]bool, old)
	for _, id := range removed {
		if id < 0 || id >= old {
			return nil, fmt.Errorf("core: WithJobs: removed demand %d outside 0..%d", id, old-1)
		}
		if rm[id] {
			return nil, fmt.Errorf("core: WithJobs: demand %d removed twice", id)
		}
		rm[id] = true
	}

	demands := make([]instance.Demand, 0, old-len(removed)+len(added))
	oldOf := make([]int32, 0, old-len(removed)+len(added))
	for i, d := range c.p.Demands {
		if rm[i] {
			continue
		}
		d.ID = len(demands)
		demands = append(demands, d)
		oldOf = append(oldOf, int32(i))
	}
	for _, d := range added {
		d.ID = len(demands)
		demands = append(demands, d)
		oldOf = append(oldOf, -1)
	}
	np := &instance.Problem{
		Kind:         c.p.Kind,
		Trees:        c.p.Trees,
		NumVertices:  c.p.NumVertices,
		NumSlots:     c.p.NumSlots,
		NumResources: c.p.NumResources,
		Capacities:   c.p.Capacities,
		Demands:      demands,
	}

	parent := c.full.peek()
	if parent == nil {
		// No model to delta from: compile afresh. Tree decompositions
		// still carry over (they depend only on the fixed networks).
		nc, err := Compile(np, c.decomp)
		if err != nil {
			return nil, err
		}
		nc.workers = c.workers
		nc.decompsHint = c.decompsHint
		nc.seqDecompsHint = c.seqHint()
		return nc, nil
	}

	nm, err := parent.m.WithDelta(np, oldOf)
	if err != nil {
		return nil, err
	}
	nc := &Compiled{
		p:              np,
		decomp:         c.decomp,
		incremental:    true,
		decompsHint:    nm.Decomps,
		seqDecompsHint: c.seqHint(),
		workers:        c.workers,
	}
	sm := &solverModel{m: nm}
	// Scratch adoption: hand one of the parent's pooled scratches to the
	// child so the first re-solve reuses warm buffers instead of
	// reallocating them. The parent is typically discarded after a delta,
	// so this steals nothing that would be missed.
	if v := parent.pool.Get(); v != nil {
		sc := v.(*solveScratch)
		sc.adapt(nm)
		sm.pool.Put(sc)
	}
	// The split sub-models (Arbitrary) pool their own scratches; migrate
	// one of each if the parent ever built its split (splitReady makes
	// the peek race-free against a concurrent first split build).
	if c.splitReady.Load() {
		if v := c.wide.pool.Get(); v != nil {
			nc.adoptWide = v.(*solveScratch)
		}
		if v := c.narrow.pool.Get(); v != nil {
			nc.adoptNarrow = v.(*solveScratch)
		}
	}
	nc.full.preset(sm)
	return nc, nil
}

// effHMin returns the minimum effective height over a model's instances,
// erroring when any exceeds 1/2 (the narrow-instance precondition of
// Lemma 6.2). context names the caller for the error message.
func effHMin(m *model.Model, context string) (float64, error) {
	hmin := 1.0
	for i := range m.Insts {
		eff := m.EffHeight(int32(i))
		if eff > 0.5+lp.Tol {
			return 0, fmt.Errorf("core: %s: instance %d has effective height %g > 1/2", context, i, eff)
		}
		if eff < hmin {
			hmin = eff
		}
	}
	return hmin, nil
}
