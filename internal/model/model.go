// Package model compiles a Problem into the flat representation the
// two-phase framework (internal/core) operates on: demand instances with
// materialized global-edge paths, critical edge sets π(d), layer groups,
// per-edge capacities, and per-demand instance lists.
//
// Compiling once up front keeps the framework generic over tree and line
// problems and over full or filtered (e.g. narrow-only, wide-only)
// instance sets.
package model

import (
	"fmt"
	"time"

	"treesched/internal/instance"
	"treesched/internal/layered"
	"treesched/internal/par"
	"treesched/internal/treedecomp"
)

// Model is the compiled form of a (sub)problem.
type Model struct {
	P     *instance.Problem
	Insts []instance.Inst

	// Paths row i lists the global edge ids of instance i's path.
	Paths CSR
	// Pi row i is the critical edge set π(d) of instance i (⊆ path).
	Pi CSR
	// Group[i] is the 1-based layer group (epoch) of instance i.
	Group     []int32
	NumGroups int
	// Delta is max |π(d)|: 6 for ideal tree decompositions, 3 for lines.
	Delta int

	// Cap[e] is the capacity of global edge e (all 1 in the paper's core
	// setting); MaxCap is its maximum, precomputed for the Capacitated
	// rule's per-raise objective bound.
	Cap    []float64
	MaxCap float64

	// InstsOf row a lists the instance indices of demand a (possibly
	// empty for filtered models).
	InstsOf CSR
	// GroupInsts row g-1 lists the instances of layer group g, ascending
	// — the per-epoch bucket Phase1 scans instead of all instances.
	GroupInsts CSR
	// EdgeInsts row e lists the instances whose path contains edge e,
	// ascending — the inverse of Paths. It drives the delta-driven
	// Phase1 re-evaluation and the edge cliques of the conflict cover.
	EdgeInsts CSR

	NumDemands int
	EdgeSpace  int

	PMin, PMax float64 // profit range over Insts
	HMin       float64 // minimum height over Insts

	// Decomps holds the tree decompositions used (nil for line problems),
	// exposed for experiments.
	Decomps []*treedecomp.Decomposition

	// captureWings records Options.CaptureWingsPi and filtered records a
	// non-nil Options.Filter (or a FilterCopy). WithDelta requires a full
	// model — neither flag set — because it copies rows for surviving
	// demands assuming the Lemma 4.2 critical sets over the complete
	// expansion.
	captureWings bool
	filtered     bool
}

// Options configures compilation.
type Options struct {
	// DecompKind selects the tree decomposition (ignored for lines).
	// Default: KindIdeal.
	DecompKind treedecomp.Kind
	// Decomps, when non-nil, reuses prebuilt tree decompositions instead
	// of rebuilding them — they depend only on the trees and DecompKind,
	// so sub-model builds (e.g. the §6 wide/narrow split) share the full
	// model's. Must match p.Trees and DecompKind.
	Decomps []*treedecomp.Decomposition
	// Filter, when non-nil, keeps only instances where Filter(inst) is
	// true (used for the wide/narrow split of §6).
	Filter func(instance.Inst) bool
	// CaptureWingsPi selects the Appendix-A critical sets (wings of the
	// capture node only, ∆ ≤ 2) instead of the Lemma 4.2 sets. Only the
	// sequential algorithm may use this; tree problems only.
	CaptureWingsPi bool
	// Workers bounds the compile fan-out: 0 = GOMAXPROCS, 1 (or below) =
	// the serial path, n = n workers. The built model is byte-identical
	// at every setting — shard boundaries are fixed functions of index
	// and results are stitched in index order — so Workers only chooses
	// how many cores the build spends, never what it produces. Workers=1
	// is kept as the equivalence oracle (plain loops, no goroutines).
	Workers int
	// Stats, when non-nil, receives the per-phase wall-clock breakdown of
	// this build (decomposition / layering / paths / indexes). The hook
	// behind the BENCH_core compile-phase columns; works at any Workers
	// setting so the serial breakdown anchors the parallel one.
	Stats *BuildStats
}

// BuildStats is the per-phase wall-clock breakdown of one Build call.
type BuildStats struct {
	// DecompNs is the tree-decomposition phase (0 for lines or when
	// prebuilt decompositions were supplied via Options.Decomps).
	DecompNs int64 `json:"decomp_ns"`
	// LayerNs is the layered row construction (groups + critical sets).
	LayerNs int64 `json:"layer_ns"`
	// PathNs is the path materialization into the Paths CSR.
	PathNs int64 `json:"path_ns"`
	// IndexNs covers capacities, the consistency check and the derived
	// indexes (InstsOf/GroupInsts/EdgeInsts).
	IndexNs int64 `json:"index_ns"`
	// TotalNs is the whole Build call.
	TotalNs int64 `json:"total_ns"`
}

// phase records the elapsed time since *last into dst and resets *last —
// the four calls a Build makes cost nanoseconds next to any phase.
func (s *BuildStats) phase(dst *int64, last *time.Time) {
	now := time.Now() //schedlint:statsonly BuildStats is observational; TestBuildStatsDoesNotInfluenceModel pins that it never shapes the model
	*dst += now.Sub(*last).Nanoseconds()
	*last = now
}

// Build compiles p. The instance set is p.Expand() filtered by
// opts.Filter.
func Build(p *instance.Problem, opts Options) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	insts := p.Expand()
	if opts.Filter != nil {
		kept := insts[:0:0]
		for _, d := range insts {
			if opts.Filter(d) {
				kept = append(kept, d)
			}
		}
		insts = kept
		// Re-number ids to stay dense.
		for i := range insts {
			insts[i].ID = int32(i)
		}
	}

	m := &Model{
		P:            p,
		Insts:        insts,
		NumDemands:   len(p.Demands),
		EdgeSpace:    p.EdgeSpace(),
		captureWings: opts.CaptureWingsPi,
		filtered:     opts.Filter != nil,
	}

	workers := par.Resolve(opts.Workers)
	stats := opts.Stats
	if stats == nil {
		stats = &BuildStats{} // throwaway: keeps the phase marks branch-free
	}
	last := time.Now() //schedlint:statsonly phase-mark anchor for BuildStats; model bytes are clock-independent
	begin := last

	var asg *layered.Assignment
	var err error
	if p.Kind == instance.KindTree {
		if opts.Decomps != nil {
			m.Decomps = opts.Decomps
		} else {
			m.Decomps = treedecomp.BuildAll(p.Trees, opts.DecompKind, workers)
		}
		stats.phase(&stats.DecompNs, &last)
		if opts.CaptureWingsPi {
			asg, err = layered.ForTreesCaptureWingsSharded(p, insts, m.Decomps, workers)
		} else {
			asg, err = layered.ForTreesSharded(p, insts, m.Decomps, workers)
		}
	} else {
		if opts.CaptureWingsPi {
			return nil, fmt.Errorf("model: CaptureWingsPi is tree-only")
		}
		asg, err = layered.ForLinesSharded(p, insts, workers)
	}
	if err != nil {
		return nil, err
	}
	m.Pi = NewCSR(asg.Pi)
	m.Group = asg.Group
	stats.phase(&stats.LayerNs, &last)

	m.Paths = buildPaths(p, insts, workers)
	stats.phase(&stats.PathNs, &last)

	m.Cap = make([]float64, m.EdgeSpace)
	for e := range m.Cap {
		m.Cap[e] = p.Capacity(int32(e))
		if m.Cap[e] > m.MaxCap {
			m.MaxCap = m.Cap[e]
		}
	}

	if err := m.finalize(workers); err != nil {
		return nil, err
	}
	stats.phase(&stats.IndexNs, &last)
	stats.TotalNs += time.Since(begin).Nanoseconds() //schedlint:statsonly BuildStats.TotalNs is observational only
	return m, nil
}

// pathShard is the instances-per-shard granule of the parallel path fill
// (cheap per-instance work: one LCA walk or a slot loop).
const pathShard = 1024

// buildPaths materializes every instance path into one exactly-sized CSR:
// a counted first pass over PathLen fixes each row's offset (replacing
// the grow-by-append build, measurable by itself at the 10^5-instance
// presets), then the rows are filled in place — sharded across workers,
// each shard writing only its own rows, so the slab is byte-identical at
// any fan-out.
func buildPaths(p *instance.Problem, insts []instance.Inst, workers int) CSR {
	off := make([]int32, len(insts)+1)
	par.Shards(workers, len(insts), pathShard, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off[i+1] = int32(p.PathLen(insts[i]))
		}
	})
	for i := 0; i < len(insts); i++ {
		off[i+1] += off[i]
	}
	data := make([]int32, off[len(insts)])
	par.Shards(workers, len(insts), pathShard, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.FillPathEdges(data[off[i]:off[i+1]], insts[i])
		}
	})
	return CSR{Off: off, Data: data}
}

// finalize computes everything derivable from a model whose Insts, Paths,
// Pi, Group and Cap are in place: the Delta and NumGroups scalars, the
// profit/height ranges, the internal consistency check, and the
// InstsOf/GroupInsts/EdgeInsts indexes. Build and the incremental
// rebuilds (WithDelta, FilterCopy) share it, so a delta-built model's
// derived state is computed by the exact code a fresh Build runs.
//
// With workers > 1 the independent pieces run concurrently — first
// {InstsOf, check} (neither reads the other), then, only on a validated
// model, {GroupInsts, EdgeInsts} — each writing its own field, so the
// derived state is identical to the serial order. The serial path runs
// the four steps inline rather than through par.Go: closures handed to
// par.Go escape (its goroutine branch captures them), which would cost
// every serial Build and FilterCopy five heap allocations.
func (m *Model) finalize(workers int) error {
	m.deriveScalars()
	if workers <= 1 {
		m.InstsOf = BucketCSR(m.NumDemands, len(m.Insts), func(i int32) int32 {
			return m.Insts[i].Demand
		})
		if err := m.check(); err != nil {
			return err
		}
		m.GroupInsts = BucketCSR(m.NumGroups, len(m.Insts), func(i int32) int32 {
			return m.Group[i] - 1
		})
		m.EdgeInsts = InvertCSR(&m.Paths, m.EdgeSpace)
		return nil
	}
	var checkErr error
	par.Go(workers,
		func() {
			//schedlint:owned this thunk is the sole writer of m.InstsOf; m is local to finalize's caller chain
			m.InstsOf = BucketCSR(m.NumDemands, len(m.Insts), func(i int32) int32 {
				return m.Insts[i].Demand
			})
		},
		//schedlint:owned sole writer of checkErr; read only after par.Go returns
		func() { checkErr = m.check() },
	)
	if checkErr != nil {
		return checkErr
	}
	// The derived indexes are built after check so their bucket functions
	// only see validated groups and edge ids.
	par.Go(workers,
		func() {
			//schedlint:owned sole writer of m.GroupInsts; sibling thunk writes only m.EdgeInsts
			m.GroupInsts = BucketCSR(m.NumGroups, len(m.Insts), func(i int32) int32 {
				return m.Group[i] - 1
			})
		},
		//schedlint:owned sole writer of m.EdgeInsts; sibling thunk writes only m.GroupInsts
		func() { m.EdgeInsts = InvertCSR(&m.Paths, m.EdgeSpace) },
	)
	return nil
}

// deriveScalars computes the scalars derivable from Insts/Pi/Group:
// Delta, NumGroups and the profit/height ranges. Shared by finalize and
// the incremental rebuild so a scalar added here reaches both paths.
func (m *Model) deriveScalars() {
	m.Delta, m.NumGroups = 0, 0
	m.PMin, m.PMax, m.HMin = 0, 0, 0
	for i, d := range m.Insts {
		if l := m.Pi.RowLen(int32(i)); l > m.Delta {
			m.Delta = l
		}
		if g := int(m.Group[i]); g > m.NumGroups {
			m.NumGroups = g
		}
		if i == 0 || d.Profit < m.PMin {
			m.PMin = d.Profit
		}
		if i == 0 || d.Profit > m.PMax {
			m.PMax = d.Profit
		}
		if i == 0 || d.Height < m.HMin {
			m.HMin = d.Height
		}
	}
}

// check validates internal consistency (π ⊆ path, groups in range). The
// path-membership test uses one reusable seen-stamp slice — stamping edge
// e with instance i marks "e on path(i)" without a per-instance map.
func (m *Model) check() error {
	seen := make([]int32, m.EdgeSpace)
	for e := range seen {
		seen[e] = -1
	}
	for i := range m.Insts {
		if m.Group[i] < 1 || int(m.Group[i]) > m.NumGroups {
			return fmt.Errorf("model: instance %d group %d outside 1..%d", i, m.Group[i], m.NumGroups)
		}
		for _, e := range m.Paths.Row(int32(i)) {
			if e < 0 || int(e) >= m.EdgeSpace {
				return fmt.Errorf("model: instance %d path edge %d outside edge space %d", i, e, m.EdgeSpace)
			}
			seen[e] = int32(i)
		}
		for _, e := range m.Pi.Row(int32(i)) {
			if e < 0 || int(e) >= m.EdgeSpace || seen[e] != int32(i) {
				return fmt.Errorf("model: instance %d critical edge %d not on its path", i, e)
			}
		}
	}
	return nil
}

// Conflict reports whether instances i and j conflict (same demand or
// overlapping paths).
func (m *Model) Conflict(i, j int32) bool {
	return m.P.Conflict(m.Insts[i], m.Insts[j])
}

// TotalProfit sums the profits of the given instance indices.
func (m *Model) TotalProfit(sel []int32) float64 {
	sum := 0.0
	for _, i := range sel {
		sum += m.Insts[i].Profit
	}
	return sum
}

// EffHeight returns the effective (capacity-normalized) height of instance
// i: max over its path of Height/Cap(e). With uniform unit capacities this
// is just the height.
func (m *Model) EffHeight(i int32) float64 {
	h := m.Insts[i].Height
	max := 0.0
	for _, e := range m.Paths.Row(i) {
		if v := h / m.Cap[e]; v > max {
			max = v
		}
	}
	return max
}
