package bench

// The cold-path benchmark behind `schedbench -core`: where the
// end-to-end benchmark (perfbench/) tracks the serving layer per cache
// regime over HTTP, this harness tracks the solver itself — ns/solve and
// allocs/solve per scenario×algorithm pair, cold (fresh compilation per
// solve, the regime a service facing millions of distinct problems lives
// in) and warm (compiled model reused, the pooled-scratch steady state).
// The checked-in BENCH_core.json anchors the perf trajectory; CheckCore
// guards it in CI.

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"treesched/internal/core"
	"treesched/internal/instance"
	"treesched/internal/model"
	"treesched/internal/obs"
	"treesched/internal/scenario"
)

// CorePair is one tracked (scenario, algorithm) combination.
type CorePair struct {
	Scenario string
	Algo     string
}

// CorePairs lists the tracked combinations: the two acceptance workloads
// of the CSR/incremental refactor (videowall-line/line-unit,
// capacitated-tree/arbitrary) plus one plain tree run, one narrow run and
// one distributed run for breadth.
var CorePairs = []CorePair{
	{"videowall-line", "line-unit"},
	{"caterpillar-backbone", "tree-unit"},
	{"narrow-stream", "narrow"},
	{"capacitated-tree", "arbitrary"},
	{"binary-fanout", "dist-unit"},
}

// preRefactorColdNs is the cold ns/solve of each tracked pair measured
// with this exact harness immediately before the CSR + incremental-Phase1
// refactor (commit 19ef5e0, the PR 2 solver; best of two runs, GOMAXPROCS=1).
// It is the fixed anchor the speedup columns are computed against; do not
// remeasure it.
var preRefactorColdNs = map[string]float64{
	"videowall-line/line-unit":       1712860,
	"caterpillar-backbone/tree-unit": 169652,
	"narrow-stream/narrow":           433288,
	"capacitated-tree/arbitrary":     503787,
	"binary-fanout/dist-unit":        2793619,
}

// CoreEntry is the measured cost of one pair.
type CoreEntry struct {
	Scenario string `json:"scenario"`
	Algo     string `json:"algo"`
	// Cold: core.Compile + solve per iteration — every request is a new
	// problem, nothing reused.
	ColdNsPerSolve     float64 `json:"cold_ns_per_solve"`
	ColdAllocsPerSolve float64 `json:"cold_allocs_per_solve"`
	// Warm: one Compiled reused across iterations — compilation and
	// conflict structures cached, solver scratch pooled.
	WarmNsPerSolve     float64 `json:"warm_ns_per_solve"`
	WarmAllocsPerSolve float64 `json:"warm_allocs_per_solve"`
	// SpeedupVsPreRefactor is preRefactorColdNs / ColdNsPerSolve (0 when
	// the pair has no recorded anchor).
	SpeedupVsPreRefactor float64 `json:"speedup_vs_pre_refactor,omitempty"`
}

// Key returns the "scenario/algo" identifier used by the anchor map and
// the regression checker.
func (e *CoreEntry) Key() string { return e.Scenario + "/" + e.Algo }

// CoreReport is the BENCH_core.json document.
type CoreReport struct {
	Note              string             `json:"note"`
	Regenerate        string             `json:"regenerate"`
	GoVersion         string             `json:"go_version"`
	GOMAXPROCS        int                `json:"gomaxprocs"`
	PreRefactorColdNs map[string]float64 `json:"pre_refactor_cold_ns_per_solve,omitempty"`
	Entries           []CoreEntry        `json:"entries"`
	// ScaleEntries tracks the parallel-compile tier: serial vs full-width
	// cold model builds with per-phase breakdowns on the scale presets.
	ScaleEntries []CoreScaleEntry `json:"scale_entries,omitempty"`
	// BatchEntries tracks CompileBatch/SolveBatch against the equivalent
	// one-at-a-time loop over the same problems.
	BatchEntries []CoreBatchEntry `json:"batch_entries,omitempty"`
	// ObsEntries tracks the telemetry tier: warm solves with tracing off
	// vs on, the enabled-tracing overhead, the phase breakdown of the
	// traced run and latency quantiles across runs. CheckCore gates
	// OverheadPct at maxObsOverheadPct.
	ObsEntries []CoreObsEntry `json:"obs_entries,omitempty"`
}

// CoreScalePair names one scale preset of the parallel-compile tier and
// the sized-down parameters the -quick mode substitutes (CI smoke; the
// checked-in baseline uses the preset defaults).
type CoreScalePair struct {
	Scenario string
	Quick    scenario.Params
}

// CoreScalePairs lists the compile-scale workloads: the three Scale
// presets, spanning the line path (no decompositions), deep random trees
// (decomposition-heavy) and wide caterpillar fan-out.
var CoreScalePairs = []CoreScalePair{
	{"line-100k", scenario.Params{Demands: 20_000, Size: 256, Networks: 2048}},
	{"random-tree-50k", scenario.Params{Demands: 10_000, Size: 64, Networks: 1024}},
	{"caterpillar-20k", scenario.Params{Demands: 5_000, Size: 48, Networks: 256}},
}

// CoreScaleEntry is the measured cold-compile cost of one scale preset:
// the serial oracle (Workers=1) with its per-phase breakdown, the same
// build at full width, and the resulting speedup. Both builds produce
// byte-identical models (the equivalence suite pins this), so the two
// columns measure exactly one variable. Phase timings are recorded in
// serial mode too — they are what the parallel columns are judged
// against.
type CoreScaleEntry struct {
	Scenario string `json:"scenario"`
	Demands  int    `json:"demands"`
	// Workers is the fan-out of the parallel columns (GOMAXPROCS at
	// measurement time; the serial columns always use 1).
	Workers int `json:"workers"`

	SerialBuildNs  int64 `json:"serial_build_ns"`
	SerialDecompNs int64 `json:"serial_decomp_ns"`
	SerialLayerNs  int64 `json:"serial_layer_ns"`
	SerialPathNs   int64 `json:"serial_path_ns"`
	SerialIndexNs  int64 `json:"serial_index_ns"`

	ParallelBuildNs  int64 `json:"parallel_build_ns"`
	ParallelDecompNs int64 `json:"parallel_decomp_ns"`
	ParallelLayerNs  int64 `json:"parallel_layer_ns"`
	ParallelPathNs   int64 `json:"parallel_path_ns"`
	ParallelIndexNs  int64 `json:"parallel_index_ns"`

	// Speedup = SerialBuildNs / ParallelBuildNs. ~1.0 on a single-core
	// recorder; the CI gate only judges it on ≥4-core runners.
	Speedup float64 `json:"speedup"`
}

// CoreBatchEntry compares a one-at-a-time compile+solve loop against
// CompileBatch + SolveBatch over the same problem set.
type CoreBatchEntry struct {
	Scenario string `json:"scenario"`
	Algo     string `json:"algo"`
	// Problems is the batch width; Demands the per-problem demand count.
	Problems int `json:"problems"`
	Demands  int `json:"demands"`

	LoopNs  int64 `json:"loop_ns"`
	BatchNs int64 `json:"batch_ns"`
	// Speedup = LoopNs / BatchNs.
	Speedup float64 `json:"speedup"`
}

// CoreObsPair names one telemetry-overhead workload: a scale preset, the
// solver driven over it, and the sized-down -quick substitution.
type CoreObsPair struct {
	Scenario string
	Algo     string
	Quick    scenario.Params
}

// CoreObsPairs lists the telemetry-overhead workloads: the three scale
// presets, spanning the centralized line path, the centralized tree path
// and the message-passing runtime (whose per-round sampling is the
// busiest telemetry surface).
var CoreObsPairs = []CoreObsPair{
	{"line-100k", "line-unit", scenario.Params{Demands: 20_000, Size: 256, Networks: 2048}},
	{"random-tree-50k", "tree-unit", scenario.Params{Demands: 10_000, Size: 64, Networks: 1024}},
	{"caterpillar-20k", "dist-unit", scenario.Params{Demands: 5_000, Size: 48, Networks: 256}},
}

// CoreObsEntry is the measured telemetry cost of one pair: the same warm
// solve best-of-N with Options.Telemetry nil (the production default)
// and with a fresh obs.Trace attached, the relative overhead, the phase
// breakdown of the fastest traced run, and a latency summary over every
// run (both modes) from the obs histogram — the same quantile machinery
// /metrics and schedtool replay report through.
type CoreObsEntry struct {
	Scenario string `json:"scenario"`
	Algo     string `json:"algo"`
	Demands  int    `json:"demands"`
	Runs     int    `json:"runs"`
	// Quick marks a sized-down -quick measurement. Solves at quick size
	// finish in single-digit milliseconds, where both scheduler jitter
	// and the fixed per-span cost are a visible fraction of the run; the
	// strict overhead gate applies only to full-size measurements, quick
	// ones get the loose smoke backstop (see checkObs).
	Quick bool `json:"quick,omitempty"`

	PlainNsPerSolve  int64 `json:"plain_ns_per_solve"`
	TracedNsPerSolve int64 `json:"traced_ns_per_solve"`
	// OverheadPct is the enabled-tracing overhead, taken as the smaller
	// of two noise-robust estimates: the median of per-round
	// traced/plain ratios (each round times the two modes back to back,
	// in alternating order, so a load burst hits both sides of its pair)
	// and the ratio of the best traced run to the best plain run (each
	// mode's quietest moment). A shared runner's noise inflates either
	// estimate only under sustained one-sided load, but a real
	// systematic overhead — present in every round — shifts both.
	// Negative estimates (tracing "faster") read as zero.
	OverheadPct float64 `json:"overhead_pct"`

	// PhaseNs maps each top-level span of the fastest traced run
	// (compile, phase1, verify_lambda, phase2, assemble, protocol) to its
	// duration.
	PhaseNs map[string]int64 `json:"phase_ns"`
	// SolveLatency summarizes per-run wall time across all runs of both
	// modes.
	SolveLatency obs.Summary `json:"solve_latency"`
}

// coreSolve dispatches one solve on a compiled problem through the core
// registry; options are fixed so every measurement exercises the
// identical deterministic run. tel attaches a trace (the telemetry tier);
// nil is the production default.
func coreSolve(c *core.Compiled, algo string, tel *obs.Trace) error {
	a, ok := core.Lookup(algo)
	if !ok {
		return fmt.Errorf("bench: unknown algorithm %q", algo)
	}
	_, _, err := a.Run(c, core.Options{Seed: 1, Telemetry: tel})
	return err
}

// CoreBench measures every tracked pair and assembles the report. Quick
// shrinks the per-measurement time budget (CI smoke); the checked-in
// baseline should be regenerated without it.
func CoreBench(quick bool) (*CoreReport, error) {
	target := 400 * time.Millisecond
	if quick {
		target = 60 * time.Millisecond
	}
	report := &CoreReport{
		Note: "solver cold path: ns/solve and allocs/solve per scenario×algo; " +
			"cold = fresh core.Compile per solve, warm = one Compiled reused " +
			"(cached conflict structures + pooled scratch); speedups are " +
			"against the fixed pre-refactor anchor; scale_entries = serial " +
			"(Workers=1) vs full-width cold model builds with per-phase " +
			"breakdowns on the Scale presets; batch_entries = one-at-a-time " +
			"loop vs CompileBatch/SolveBatch (parallel speedup gates apply " +
			"only on >=4-core runners); obs_entries = warm solves with " +
			"tracing off vs on (enabled-tracing overhead gated at 3%) with " +
			"phase breakdowns and latency quantiles",
		Regenerate:        "go run ./cmd/schedbench -core -o BENCH_core.json",
		GoVersion:         runtime.Version(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		PreRefactorColdNs: preRefactorColdNs,
	}
	for _, pair := range CorePairs {
		s, ok := scenario.Get(pair.Scenario)
		if !ok {
			return nil, fmt.Errorf("bench: unknown scenario %q", pair.Scenario)
		}
		p, err := s.Generate(scenario.Params{}, 1)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
		}
		entry := CoreEntry{Scenario: pair.Scenario, Algo: pair.Algo}

		// Cold and warm are measured one after the other, not as
		// rotated arms: a cold round's garbage collections would empty the
		// warm arm's pooled scratch after its calibration call.
		cold, err := measureArms(plan{rounds: 1, target: target}, arm{"cold", func(int) error {
			c, err := core.Compile(p, 0)
			if err != nil {
				return err
			}
			return coreSolve(c, pair.Algo, nil)
		}})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %v", entry.Key(), err)
		}
		warmC, err := core.Compile(p, 0)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
		}
		warm, err := measureArms(plan{rounds: 1, target: target}, arm{"warm", func(int) error {
			return coreSolve(warmC, pair.Algo, nil)
		}})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %v", entry.Key(), err)
		}
		entry.ColdNsPerSolve, entry.ColdAllocsPerSolve = cold[0].nsPerCall(), cold[0].allocs
		entry.WarmNsPerSolve, entry.WarmAllocsPerSolve = warm[0].nsPerCall(), warm[0].allocs

		if anchor := preRefactorColdNs[entry.Key()]; anchor > 0 && entry.ColdNsPerSolve > 0 {
			entry.SpeedupVsPreRefactor = anchor / entry.ColdNsPerSolve
		}
		report.Entries = append(report.Entries, entry)
	}

	for _, pair := range CoreScalePairs {
		entry, err := scaleBench(pair, quick)
		if err != nil {
			return nil, err
		}
		report.ScaleEntries = append(report.ScaleEntries, *entry)
	}
	batch, err := batchBench(quick)
	if err != nil {
		return nil, err
	}
	report.BatchEntries = append(report.BatchEntries, *batch)
	for _, pair := range CoreObsPairs {
		entry, err := obsBench(pair, quick)
		if err != nil {
			return nil, err
		}
		report.ObsEntries = append(report.ObsEntries, *entry)
	}
	return report, nil
}

// obsRuns is the per-mode run count of the telemetry tier: enough
// paired rounds for a stable median and best-of on multi-millisecond
// solves without dominating the harness.
const obsRuns = 7

// obsBench measures one telemetry workload: the identical warm solve
// with tracing off and on. Both modes produce byte-identical results
// (TestTelemetryEquivalence pins this), so the two columns measure
// exactly the observability cost.
func obsBench(pair CoreObsPair, quick bool) (*CoreObsEntry, error) {
	s, ok := scenario.Get(pair.Scenario)
	if !ok {
		return nil, fmt.Errorf("bench: unknown obs scenario %q", pair.Scenario)
	}
	params := scenario.Params{}
	runs := obsRuns
	if quick {
		// Quick sizes solve in single-digit milliseconds where scheduler
		// jitter is a few percent per run; more paired rounds (still cheap
		// at these sizes) keep the 3% gate out of the noise.
		params = pair.Quick
		runs = 9
	}
	p, err := s.Generate(params, 1)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
	}
	c, err := core.Compile(p, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
	}
	// Warm the lazy model and scratch pools out of the measurement.
	if err := coreSolve(c, pair.Algo, nil); err != nil {
		return nil, fmt.Errorf("bench: %s/%s warmup: %v", pair.Scenario, pair.Algo, err)
	}

	entry := &CoreObsEntry{
		Scenario: pair.Scenario,
		Algo:     pair.Algo,
		Demands:  len(p.Demands),
		Runs:     runs,
		Quick:    quick,
	}
	// Both modes are one arm each; the traced arm keeps every run's trace
	// so the phase breakdown can come from its fastest round.
	var traces []*obs.Trace
	res, err := measureArms(plan{rounds: runs, calls: 1},
		arm{"plain", func(int) error {
			return coreSolve(c, pair.Algo, nil)
		}},
		arm{"traced", func(int) error {
			tel := obs.NewTrace()
			traces = append(traces, tel)
			return coreSolve(c, pair.Algo, tel)
		}})
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: %v", pair.Scenario, pair.Algo, err)
	}
	plain, traced := &res[0], &res[1]
	entry.PlainNsPerSolve, entry.TracedNsPerSolve = plain.bestNs(), traced.bestNs()
	if entry.PlainNsPerSolve > 0 {
		est := min(medianRatio(traced, plain), float64(entry.TracedNsPerSolve)/float64(entry.PlainNsPerSolve))
		if est > 1 {
			entry.OverheadPct = (est - 1) * 100
		}
	}
	entry.PhaseNs = make(map[string]int64)
	for _, sp := range traces[traced.best].Spans() {
		if sp.Parent == obs.NoSpan && sp.DurNs > 0 {
			entry.PhaseNs[sp.Name] += sp.DurNs
		}
	}
	hist := new(obs.Histogram)
	for r := range plain.roundNs {
		hist.Observe(plain.roundNs[r])
		hist.Observe(traced.roundNs[r])
	}
	entry.SolveLatency = hist.Summarize()
	return entry, nil
}

// buildRuns is the best-of count of the scale-tier builds and the batch
// tier: the workloads are big enough that a calibrated repetition loop
// would dominate the harness, so each arm takes the fastest of a few
// rounds of one call.
const buildRuns = 3

// scaleBench measures one scale preset: serial-oracle build vs
// full-width build, phase by phase.
func scaleBench(pair CoreScalePair, quick bool) (*CoreScaleEntry, error) {
	s, ok := scenario.Get(pair.Scenario)
	if !ok {
		return nil, fmt.Errorf("bench: unknown scale scenario %q", pair.Scenario)
	}
	params := scenario.Params{}
	if quick {
		params = pair.Quick
	}
	p, err := s.Generate(params, 1)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
	}
	entry := &CoreScaleEntry{
		Scenario: pair.Scenario,
		Demands:  len(p.Demands),
		Workers:  runtime.GOMAXPROCS(0),
	}
	// Each arm keeps every build's phase breakdown; the entry reports the
	// fastest round's.
	var stats [2][]model.BuildStats
	build := func(k int, name string, workers int) arm {
		return arm{name, func(int) error {
			var st model.BuildStats
			_, err := model.Build(p, model.Options{Workers: workers, Stats: &st})
			stats[k] = append(stats[k], st)
			return err
		}}
	}
	res, err := measureArms(plan{rounds: buildRuns, calls: 1}, build(0, "serial build", 1), build(1, "parallel build", 0))
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
	}
	st := stats[0][res[0].best]
	entry.SerialBuildNs = res[0].bestNs()
	entry.SerialDecompNs, entry.SerialLayerNs = st.DecompNs, st.LayerNs
	entry.SerialPathNs, entry.SerialIndexNs = st.PathNs, st.IndexNs
	st = stats[1][res[1].best]
	entry.ParallelBuildNs = res[1].bestNs()
	entry.ParallelDecompNs, entry.ParallelLayerNs = st.DecompNs, st.LayerNs
	entry.ParallelPathNs, entry.ParallelIndexNs = st.PathNs, st.IndexNs

	if entry.ParallelBuildNs > 0 {
		entry.Speedup = float64(entry.SerialBuildNs) / float64(entry.ParallelBuildNs)
	}
	return entry, nil
}

// batchBench measures the multi-network batch preset: the same problem
// set compiled and solved one at a time versus through
// CompileBatch/SolveBatch at full width.
func batchBench(quick bool) (*CoreBatchEntry, error) {
	const name, algo = "caterpillar-backbone", "tree-unit"
	s, ok := scenario.Get(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown batch scenario %q", name)
	}
	problems, params := 12, scenario.Params{Demands: 400, Size: 36, Networks: 4}
	if quick {
		problems, params.Demands = 8, 200
	}
	ps := make([]*instance.Problem, problems)
	for i := range ps {
		p, err := s.Generate(params, int64(i+1))
		if err != nil {
			return nil, fmt.Errorf("bench: %s seed %d: %v", name, i+1, err)
		}
		ps[i] = p
	}
	entry := &CoreBatchEntry{
		Scenario: name, Algo: algo,
		Problems: problems, Demands: params.Demands,
	}

	loop := arm{"loop", func(int) error {
		for _, p := range ps {
			c, err := core.Compile(p, 0)
			if err != nil {
				return err
			}
			if err := coreSolve(c, algo, nil); err != nil {
				return err
			}
		}
		return nil
	}}
	batched := arm{"batch", func(int) error {
		cs, errs := core.CompileBatch(ps, 0, 0)
		if err := errors.Join(errs...); err != nil {
			return err
		}
		_, errs = core.SolveBatch(cs, 0, func(_ int, c *core.Compiled) (*core.Result, error) {
			return nil, coreSolve(c, algo, nil)
		})
		return errors.Join(errs...)
	}}
	res, err := measureArms(plan{rounds: buildRuns, calls: 1}, loop, batched)
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s batch: %v", name, algo, err)
	}
	entry.LoopNs, entry.BatchNs = res[0].bestNs(), res[1].bestNs()
	if entry.BatchNs > 0 {
		entry.Speedup = float64(entry.LoopNs) / float64(entry.BatchNs)
	}
	return entry, nil
}

// CheckCore gates a fresh measurement against the checked-in baseline:
// per pair, cold allocs/solve against the baseline's (at most
// 1+regressionTol times it) and cold ns/solve against the
// nsCatastropheFactor backstop; the scale and batch tiers (checkScale);
// and the telemetry overhead (checkObs). Pairs present only in the
// baseline are ignored so the tracked set can evolve.
func CheckCore(current, baseline *CoreReport) []Gate {
	var gates gateList
	base := index(baseline.Entries, (*CoreEntry).Key)
	for i := range current.Entries {
		e := &current.Entries[i]
		want := base[e.Key()]
		if want == nil {
			gates.inert(e.Key(), "not in baseline")
			continue
		}
		gates.atMost(e.Key()+" cold allocs/solve", e.ColdAllocsPerSolve, want.ColdAllocsPerSolve, 1+regressionTol, "allocs")
		gates.atMost(e.Key()+" cold ns/solve backstop", e.ColdNsPerSolve, want.ColdNsPerSolve, nsCatastropheFactor, "ns")
	}
	checkScale(&gates, current, baseline)
	checkObs(&gates, current)
	return gates
}

// maxObsOverheadPct is the enabled-tracing overhead ceiling at the full
// scale-preset sizes: a traced warm solve may cost at most this much
// more than the identical untraced solve. The zero-overhead invariant
// for tracing *off* is pinned exactly (alloc-budget and equivalence
// tests); this gate bounds the cost of turning it on.
const maxObsOverheadPct = 3.0

// quickObsOverheadPct is the smoke backstop for -quick measurements:
// quick solves finish in milliseconds, where the fixed per-span cost
// and shared-runner jitter are each a visible fraction of the run and
// a 3% margin carries no signal. The loose bound still catches
// catastrophic regressions — tracing accidentally enabled on the plain
// path, a quadratic counter search — without flaking on noise.
const quickObsOverheadPct = 25.0

// minObsGateNs is the smallest plain solve the overhead gate judges:
// below ~1ms, scheduler jitter swamps any margin and the comparison
// carries no signal.
const minObsGateNs = int64(time.Millisecond)

// checkObs gates the telemetry tier on the current report alone — the
// overhead is a within-run ratio with an absolute bound, not relative to
// a baseline.
func checkObs(gates *gateList, current *CoreReport) {
	for i := range current.ObsEntries {
		e := &current.ObsEntries[i]
		name := fmt.Sprintf("obs %s/%s tracing overhead", e.Scenario, e.Algo)
		if e.PlainNsPerSolve < minObsGateNs {
			gates.inert(name, "plain solve under 1 ms")
			continue
		}
		limit := maxObsOverheadPct
		if e.Quick {
			limit = quickObsOverheadPct
		}
		gates.check(name, e.OverheadPct <= limit, "%.2f%% (plain %d ns, traced %d ns), allowed ≤ %.1f%%",
			e.OverheadPct, e.PlainNsPerSolve, e.TracedNsPerSolve, limit)
	}
}

// minScaleSpeedup is the parallel-compile floor on ≥scaleGateProcs-core
// runners: at least one scale preset must cold-compile ≥2× faster at full
// width than through the serial oracle.
const minScaleSpeedup = 2.0

// checkScale gates the parallel-compile tier. Wall-clock backstops apply
// whenever current and baseline measured the same workload size; the
// speedup gates additionally require a multicore runner (see
// scaleGateProcs) — and compare against the baseline's speedups only when
// the baseline was multicore too.
func checkScale(gates *gateList, current, baseline *CoreReport) {
	maxSpeedup := 0.0
	base := index(baseline.ScaleEntries, func(e *CoreScaleEntry) string { return e.Scenario })
	for i := range current.ScaleEntries {
		e := &current.ScaleEntries[i]
		maxSpeedup = max(maxSpeedup, e.Speedup)
		want := base[e.Scenario]
		if want == nil {
			gates.inert(e.Scenario, "not in baseline")
			continue
		}
		name := e.Scenario + " serial build backstop"
		if why := sameSize(e.Demands < want.Demands, want.Demands < e.Demands); why != "" {
			gates.inert(name, why)
		} else {
			gates.atMost(name, float64(e.SerialBuildNs), float64(want.SerialBuildNs), nsCatastropheFactor, "ns")
		}
		name = e.Scenario + " parallel compile speedup"
		if why := multicore(current.GOMAXPROCS, baseline.GOMAXPROCS); why != "" {
			gates.inert(name, why)
		} else {
			gates.atLeast(name, e.Speedup, want.Speedup, 0.75, "x")
		}
	}
	if len(current.ScaleEntries) > 0 {
		name := "parallel compile best scale-preset speedup"
		if current.GOMAXPROCS < scaleGateProcs {
			gates.inert(name, multicore(current.GOMAXPROCS, scaleGateProcs))
		} else {
			gates.check(name, maxSpeedup >= minScaleSpeedup, "%.2fx on %d cores, required ≥ %.1fx",
				maxSpeedup, current.GOMAXPROCS, minScaleSpeedup)
		}
	}

	bbase := index(baseline.BatchEntries, func(e *CoreBatchEntry) string { return e.Scenario + "/" + e.Algo })
	for i := range current.BatchEntries {
		e := &current.BatchEntries[i]
		key := "batch " + e.Scenario + "/" + e.Algo
		want := bbase[e.Scenario+"/"+e.Algo]
		if want == nil {
			gates.inert(key, "not in baseline")
			continue
		}
		size, wantSize := e.Problems*e.Demands, want.Problems*want.Demands
		if why := sameSize(size < wantSize, wantSize < size); why != "" {
			gates.inert(key+" loop backstop", why)
		} else {
			gates.atMost(key+" loop backstop", float64(e.LoopNs), float64(want.LoopNs), nsCatastropheFactor, "ns")
		}
		if why := multicore(current.GOMAXPROCS, baseline.GOMAXPROCS); why != "" {
			gates.inert(key+" speedup", why)
		} else {
			gates.atLeast(key+" speedup", e.Speedup, want.Speedup, 0.75, "x")
		}
	}
}
