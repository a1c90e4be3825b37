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
	// setting).
	Cap []float64

	// InstsOf row a lists the instance indices of demand a (possibly
	// empty for filtered models).
	InstsOf CSR
	// GroupInsts row g-1 lists the instances of layer group g, ascending
	// — the per-epoch bucket Phase1 queues instead of all instances.
	GroupInsts CSR
	// EdgeInsts row e lists the instances whose path contains edge e,
	// ascending — the inverse of Paths, and the edge cliques of the
	// conflict cover.
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
	// LayerNs is the layered row construction (groups + critical sets),
	// which also sizes every row.
	LayerNs int64 `json:"layer_ns"`
	// PathNs is the path materialization into the Paths CSR, with the
	// critical sets written into theirs.
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
	if opts.CaptureWingsPi && p.Kind != instance.KindTree {
		return nil, fmt.Errorf("model: CaptureWingsPi is tree-only")
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

	if p.Kind == instance.KindTree {
		m.Decomps = opts.Decomps
		if m.Decomps == nil {
			m.Decomps = treedecomp.BuildAll(p.Trees, opts.DecompKind, workers)
		}
		if len(m.Decomps) != len(p.Trees) {
			return nil, fmt.Errorf("model: %d decompositions for %d trees", len(m.Decomps), len(p.Trees))
		}
	}
	stats.phase(&stats.DecompNs, &last)

	if err := m.assemble(nil, nil, workers, stats, &last); err != nil {
		return nil, err
	}
	stats.TotalNs += time.Since(begin).Nanoseconds() //schedlint:statsonly BuildStats.TotalNs is observational only
	return m, nil
}

// rowShard is the instances-per-shard granule of the parallel row
// assembly: a computed row costs a few tree walks (microseconds), so
// shards amortize the goroutine handoff while still balancing trees of
// uneven depth across workers.
const rowShard = 512

// rows is the row table of a model under assembly — Group, Pi and
// Paths, one row per instance of to. Row i is copied from row src[i] of
// from when src[i] >= 0, and is otherwise the computed row numbered
// ^src[i]; a nil src computes every row, row i as number i. Computed
// rows are pure functions of the instance and the fixed networks: the
// path through PathLen/FillPathEdges, π and the tree group through
// layered.TreeRow or layered.LinePi. Line groups are recomputed for
// every row from lmin, the Lmin of to's own instances, since §7's
// length doubling anchors on it.
//
// Each pass writes only the rows lo..hi-1 it is handed, so sharded
// passes stitch identically at any fan-out.
type rows struct {
	to, from *Model
	src      []int32
	pis      [][]int32 // π of the computed rows, by number
	lmin     int32
}

// source returns row i's source: a row of from, or ^k for computed row k.
func (r rows) source(i int) int32 {
	if r.src == nil {
		return ^int32(i)
	}
	return r.src[i]
}

// run applies pass to every row: inline when workers <= 1 or the rows
// fit one shard — so a serial Build, WithDelta and FilterCopy allocate no
// closure — and in rowShard-sized shards across workers otherwise.
func (r rows) run(workers int, pass func(r rows, lo, hi int)) {
	n := len(r.to.Insts)
	if workers <= 1 || n <= rowShard {
		pass(r, 0, n)
		return
	}
	par.Shards(workers, n, rowShard, func(lo, hi int) { pass(r, lo, hi) })
}

// lens sets each row's group and the lengths of its π and path,
// computing the π of the computed rows.
func (r rows) lens(lo, hi int) {
	m := r.to
	for i := lo; i < hi; i++ {
		d := m.Insts[i]
		var pi []int32
		if s := r.source(i); s >= 0 {
			m.Group[i], pi = r.from.Group[s], r.from.Pi.Row(s)
			m.Paths.Off[i+1] = int32(r.from.Paths.RowLen(s))
		} else {
			if m.P.Kind == instance.KindTree {
				m.Group[i], pi = layered.TreeRow(m.P, d, m.Decomps[d.Net], m.captureWings)
			} else {
				pi = layered.LinePi(m.P, d)
			}
			r.pis[^s] = pi
			m.Paths.Off[i+1] = int32(m.P.PathLen(d))
		}
		if m.P.Kind == instance.KindLine {
			m.Group[i] = layered.LineGroup(d.Len(), r.lmin)
		}
		m.Pi.Off[i+1] = int32(len(pi))
	}
}

// fill writes each row's π and path into their windows of Pi.Data and
// Paths.Data.
func (r rows) fill(lo, hi int) {
	m := r.to
	for i := lo; i < hi; i++ {
		pi := m.Pi.Data[m.Pi.Off[i]:m.Pi.Off[i+1]]
		path := m.Paths.Data[m.Paths.Off[i]:m.Paths.Off[i+1]]
		if s := r.source(i); s >= 0 {
			copy(pi, r.from.Pi.Row(s))
			copy(path, r.from.Paths.Row(s))
		} else {
			copy(pi, r.pis[^s])
			m.P.FillPathEdges(path, m.Insts[i])
		}
	}
}

// prefix turns row lengths in off[1:] into CSR offsets and returns the
// total.
func prefix(off []int32) int32 {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	return off[len(off)-1]
}

// assemble is the one row assembly of every compiled model. Given m's
// Insts, it fills m's row table — each row copied from row src[i] of
// from or computed, as rows describes — into exactly-sized CSRs: a
// counted pass fixes each row's offset and a fill pass writes the rows
// in place. It then finalizes m, whose consistency check skips the
// copied rows. Build computes every row (nil src) sharded across
// workers; WithDelta splices copied and computed rows, and FilterCopy
// copies every row, both serially. stats and last, as in Build, take
// the layer, path and index phases; WithDelta and FilterCopy pass nil.
func (m *Model) assemble(from *Model, src []int32, workers int, stats *BuildStats, last *time.Time) error {
	if stats == nil {
		stats, last = &BuildStats{}, new(time.Time) // throwaway, as in Build
	}
	n := len(m.Insts)
	r := rows{to: m, from: from, src: src}
	computed := n
	if src != nil {
		computed = 0
		for _, s := range src {
			if s < 0 {
				computed++
			}
		}
	}
	if computed > 0 {
		r.pis = make([][]int32, computed)
	}
	if m.P.Kind == instance.KindLine {
		r.lmin = layered.LineLmin(m.Insts)
	}

	m.Group = make([]int32, n)
	m.Pi.Off = make([]int32, n+1)
	m.Paths.Off = make([]int32, n+1)
	r.run(workers, rows.lens)
	stats.phase(&stats.LayerNs, last)

	m.Pi.Data = make([]int32, prefix(m.Pi.Off))
	m.Paths.Data = make([]int32, prefix(m.Paths.Off))
	r.run(workers, rows.fill)
	stats.phase(&stats.PathNs, last)

	err := m.finalize(workers, src)
	stats.phase(&stats.IndexNs, last)
	return err
}

// finalize computes everything derivable from a model whose Insts,
// Paths, Pi and Group are in place: Cap when the model does not share
// its networks' capacities, the Delta and NumGroups scalars, the
// profit/height ranges, the consistency check (skipping the rows src
// marks copied), and the InstsOf/GroupInsts/EdgeInsts indexes.
//
// With workers > 1 the independent pieces run concurrently — first
// {InstsOf, check} (neither reads the other), then, only on a validated
// model, {GroupInsts, EdgeInsts} — each writing its own field, so the
// derived state is identical to the serial order. The serial path runs
// the four steps inline rather than through par.Go: closures handed to
// par.Go escape (its goroutine branch captures them), which would cost
// every serial Build, WithDelta and FilterCopy five heap allocations.
func (m *Model) finalize(workers int, src []int32) error {
	if m.Cap == nil {
		m.Cap = make([]float64, m.EdgeSpace)
		for e := range m.Cap {
			m.Cap[e] = m.P.Capacity(int32(e))
		}
	}
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
	if workers <= 1 {
		m.InstsOf = m.demandRuns()
		if err := m.checkRows(src); err != nil {
			return err
		}
		m.GroupInsts = BucketCSR(m.NumGroups, m.Group, 1)
		m.EdgeInsts = InvertCSR(&m.Paths, m.EdgeSpace)
		return nil
	}
	var checkErr error
	par.Go(workers,
		func() {
			//schedlint:owned this thunk is the sole writer of m.InstsOf; m is local to finalize's caller chain
			m.InstsOf = m.demandRuns()
		},
		//schedlint:owned sole writer of checkErr; read only after par.Go returns
		func() { checkErr = m.checkRows(src) },
	)
	if checkErr != nil {
		return checkErr
	}
	// The derived indexes are built after check so their bucket functions
	// only see validated groups and edge ids.
	par.Go(workers,
		func() {
			//schedlint:owned sole writer of m.GroupInsts; sibling thunk writes only m.EdgeInsts
			m.GroupInsts = BucketCSR(m.NumGroups, m.Group, 1)
		},
		//schedlint:owned sole writer of m.EdgeInsts; sibling thunk writes only m.GroupInsts
		func() { m.EdgeInsts = InvertCSR(&m.Paths, m.EdgeSpace) },
	)
	return nil
}

// demandRuns builds InstsOf. Instances come in demand order — Expand's,
// which filters and the splice keep, and which checkRows checks — so
// row a is the run of demand a's instance ids.
func (m *Model) demandRuns() CSR {
	c := CSR{Off: make([]int32, m.NumDemands+1), Data: make([]int32, len(m.Insts))}
	for i, d := range m.Insts {
		c.Off[d.Demand+1]++
		c.Data[i] = int32(i)
	}
	prefix(c.Off)
	return c
}

// checkRows validates internal consistency: instances in demand order
// and groups in range on every instance, and each path inside the edge
// space with π ⊆ path on the rows srcOld marks computed (negative; every
// row when srcOld is nil). A copied row passed this check in the model
// it comes from, over the same fixed edge space, so it cannot fail it.
// The path-membership test uses one reusable seen-stamp slice — stamping
// edge e with instance i marks "e on path(i)" without a per-instance
// map — allocated only once a row needs it.
func (m *Model) checkRows(srcOld []int32) error {
	var seen []int32
	for i := range m.Insts {
		if i > 0 && m.Insts[i].Demand < m.Insts[i-1].Demand {
			return fmt.Errorf("model: instance %d of demand %d follows one of demand %d", i, m.Insts[i].Demand, m.Insts[i-1].Demand)
		}
		if m.Group[i] < 1 || int(m.Group[i]) > m.NumGroups {
			return fmt.Errorf("model: instance %d group %d outside 1..%d", i, m.Group[i], m.NumGroups)
		}
		if srcOld != nil && srcOld[i] >= 0 {
			continue
		}
		if seen == nil {
			seen = make([]int32, m.EdgeSpace)
			for e := range seen {
				seen[e] = -1
			}
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
