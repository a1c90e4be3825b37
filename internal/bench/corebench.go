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
	"fmt"
	"runtime"
	"sort"
	"strings"
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
// identical deterministic run.
func coreSolve(c *core.Compiled, algo string) error {
	return coreSolveOpts(c, algo, core.Options{Seed: 1})
}

// coreSolveOpts is coreSolve with explicit options (the telemetry tier
// attaches Options.Telemetry).
func coreSolveOpts(c *core.Compiled, algo string, opts core.Options) error {
	a, ok := core.Lookup(algo)
	if !ok {
		return fmt.Errorf("bench: unknown algorithm %q", algo)
	}
	_, _, err := a.Run(c, opts)
	return err
}

// measure runs fn repeatedly until targetDur of work is observed (after
// one calibration call) and returns ns/iteration and allocs/iteration.
func measure(targetDur time.Duration, fn func() error) (nsPerOp, allocsPerOp float64, err error) {
	// Calibration pass — also warms lazily-built state out of warm
	// measurements and pages code in for cold ones.
	begin := time.Now()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	once := time.Since(begin)
	iters := 1
	if once < targetDur {
		iters = int(targetDur/once) + 1
	}
	if iters > 20000 {
		iters = 20000
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	begin = time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(begin)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(iters)
	return nsPerOp, allocsPerOp, nil
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

		entry.ColdNsPerSolve, entry.ColdAllocsPerSolve, err = measure(target, func() error {
			c, err := core.Compile(p, 0)
			if err != nil {
				return err
			}
			return coreSolve(c, pair.Algo)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s cold: %v", pair.Scenario, pair.Algo, err)
		}

		warmC, err := core.Compile(p, 0)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
		}
		entry.WarmNsPerSolve, entry.WarmAllocsPerSolve, err = measure(target, func() error {
			return coreSolve(warmC, pair.Algo)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s warm: %v", pair.Scenario, pair.Algo, err)
		}

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
	if err := coreSolve(c, pair.Algo); err != nil {
		return nil, fmt.Errorf("bench: %s/%s warmup: %v", pair.Scenario, pair.Algo, err)
	}

	entry := &CoreObsEntry{
		Scenario: pair.Scenario,
		Algo:     pair.Algo,
		Demands:  len(p.Demands),
		Runs:     runs,
		Quick:    quick,
	}
	hist := new(obs.Histogram)
	run := func(opts core.Options) (int64, *obs.Trace, error) {
		begin := time.Now()
		if err := coreSolveOpts(c, pair.Algo, opts); err != nil {
			return 0, nil, err
		}
		ns := time.Since(begin).Nanoseconds()
		hist.Observe(ns)
		return ns, opts.Telemetry, nil
	}
	var bestTrace *obs.Trace
	ratios := make([]float64, 0, runs)
	for r := 0; r < runs; r++ {
		var pns, tns int64
		var tel *obs.Trace
		// Alternate which mode runs first so time-correlated machine load
		// (GC pacing, a neighbor's burst) cannot systematically land on
		// one side of every pair.
		measure := func() error {
			var err error
			if pns, _, err = run(core.Options{Seed: 1}); err != nil {
				return fmt.Errorf("bench: %s/%s plain: %v", pair.Scenario, pair.Algo, err)
			}
			return nil
		}
		measureTraced := func() error {
			var err error
			if tns, tel, err = run(core.Options{Seed: 1, Telemetry: obs.NewTrace()}); err != nil {
				return fmt.Errorf("bench: %s/%s traced: %v", pair.Scenario, pair.Algo, err)
			}
			return nil
		}
		first, second := measure, measureTraced
		if r%2 == 1 {
			first, second = measureTraced, measure
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
		if entry.PlainNsPerSolve == 0 || pns < entry.PlainNsPerSolve {
			entry.PlainNsPerSolve = pns
		}
		if entry.TracedNsPerSolve == 0 || tns < entry.TracedNsPerSolve {
			entry.TracedNsPerSolve = tns
			bestTrace = tel
		}
		if pns > 0 {
			ratios = append(ratios, float64(tns)/float64(pns))
		}
	}
	if len(ratios) > 0 && entry.PlainNsPerSolve > 0 {
		sort.Float64s(ratios)
		est := ratios[len(ratios)/2]
		if best := float64(entry.TracedNsPerSolve) / float64(entry.PlainNsPerSolve); best < est {
			est = best
		}
		if est > 1 {
			entry.OverheadPct = (est - 1) * 100
		}
	}
	entry.PhaseNs = make(map[string]int64)
	for _, sp := range bestTrace.Spans() {
		if sp.Parent == obs.NoSpan && sp.DurNs > 0 {
			entry.PhaseNs[sp.Name] += sp.DurNs
		}
	}
	entry.SolveLatency = hist.Summarize()
	return entry, nil
}

// buildRuns is the best-of count of the scale-tier builds: the presets
// are big enough that a repetition loop like measure's would dominate
// the harness, so each column takes the fastest of a few full builds.
const buildRuns = 3

// measureBuild cold-builds the model best-of-runs times at the given
// fan-out and returns the fastest run's wall clock and phase breakdown.
func measureBuild(p *instance.Problem, workers, runs int) (int64, model.BuildStats, error) {
	best := int64(-1)
	var bestStats model.BuildStats
	for r := 0; r < runs; r++ {
		var st model.BuildStats
		if _, err := model.Build(p, model.Options{Workers: workers, Stats: &st}); err != nil {
			return 0, model.BuildStats{}, err
		}
		if best < 0 || st.TotalNs < best {
			best, bestStats = st.TotalNs, st
		}
	}
	return best, bestStats, nil
}

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
	var st model.BuildStats
	if entry.SerialBuildNs, st, err = measureBuild(p, 1, buildRuns); err != nil {
		return nil, fmt.Errorf("bench: %s serial build: %v", pair.Scenario, err)
	}
	entry.SerialDecompNs, entry.SerialLayerNs = st.DecompNs, st.LayerNs
	entry.SerialPathNs, entry.SerialIndexNs = st.PathNs, st.IndexNs

	if entry.ParallelBuildNs, st, err = measureBuild(p, 0, buildRuns); err != nil {
		return nil, fmt.Errorf("bench: %s parallel build: %v", pair.Scenario, err)
	}
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

	loop := func() (int64, error) {
		begin := time.Now()
		for _, p := range ps {
			c, err := core.Compile(p, 0)
			if err != nil {
				return 0, err
			}
			if err := coreSolve(c, algo); err != nil {
				return 0, err
			}
		}
		return time.Since(begin).Nanoseconds(), nil
	}
	batched := func() (int64, error) {
		begin := time.Now()
		cs, errs := core.CompileBatch(ps, 0, 0)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		_, serrs := core.SolveBatch(cs, 0, func(_ int, c *core.Compiled) (*core.Result, error) {
			return nil, coreSolve(c, algo)
		})
		for _, err := range serrs {
			if err != nil {
				return 0, err
			}
		}
		return time.Since(begin).Nanoseconds(), nil
	}

	for r := 0; r < buildRuns; r++ {
		ns, err := loop()
		if err != nil {
			return nil, fmt.Errorf("bench: batch loop: %v", err)
		}
		if entry.LoopNs == 0 || ns < entry.LoopNs {
			entry.LoopNs = ns
		}
		if ns, err = batched(); err != nil {
			return nil, fmt.Errorf("bench: batch: %v", err)
		}
		if entry.BatchNs == 0 || ns < entry.BatchNs {
			entry.BatchNs = ns
		}
	}
	if entry.BatchNs > 0 {
		entry.Speedup = float64(entry.LoopNs) / float64(entry.BatchNs)
	}
	return entry, nil
}

// nsCatastropheFactor is the wall-clock backstop multiplier of
// CheckCore: ns/solve is only compared loosely because the baseline was
// recorded on different hardware than the checker runs on (a CI runner
// 30% slower than the baseline machine is not a code regression).
// Allocation counts are hardware-independent, so they carry the strict
// gate.
const nsCatastropheFactor = 4.0

// CheckCore compares a fresh measurement against the checked-in baseline
// and errors when any pair's cold path regressed: allocs/solve above
// (1+tolerance)× the recorded value (e.g. 0.25 = fail above 1.25×), or
// ns/solve beyond the catastrophic nsCatastropheFactor backstop. Pairs
// present in only one report are ignored so the tracked set can evolve.
func CheckCore(current, baseline *CoreReport, tolerance float64) error {
	base := make(map[string]*CoreEntry, len(baseline.Entries))
	for i := range baseline.Entries {
		base[baseline.Entries[i].Key()] = &baseline.Entries[i]
	}
	var failures []string
	for i := range current.Entries {
		e := &current.Entries[i]
		want := base[e.Key()]
		if want == nil {
			continue
		}
		if want.ColdAllocsPerSolve > 0 && e.ColdAllocsPerSolve > want.ColdAllocsPerSolve*(1+tolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s: cold %.0f allocs/solve vs baseline %.0f (%.2fx > allowed %.2fx)",
				e.Key(), e.ColdAllocsPerSolve, want.ColdAllocsPerSolve,
				e.ColdAllocsPerSolve/want.ColdAllocsPerSolve, 1+tolerance))
		}
		if want.ColdNsPerSolve > 0 && e.ColdNsPerSolve > want.ColdNsPerSolve*nsCatastropheFactor {
			failures = append(failures, fmt.Sprintf(
				"%s: cold %.0f ns/solve vs baseline %.0f (%.2fx > catastrophic %gx backstop)",
				e.Key(), e.ColdNsPerSolve, want.ColdNsPerSolve,
				e.ColdNsPerSolve/want.ColdNsPerSolve, nsCatastropheFactor))
		}
	}
	failures = append(failures, checkScale(current, baseline)...)
	failures = append(failures, checkObs(current)...)
	if len(failures) > 0 {
		return fmt.Errorf("bench: cold-path regression against BENCH_core.json:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return nil
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
// overhead bound is absolute, not relative to a baseline.
func checkObs(current *CoreReport) []string {
	var failures []string
	for i := range current.ObsEntries {
		e := &current.ObsEntries[i]
		if e.PlainNsPerSolve < minObsGateNs {
			continue
		}
		limit := maxObsOverheadPct
		if e.Quick {
			limit = quickObsOverheadPct
		}
		if e.OverheadPct > limit {
			failures = append(failures, fmt.Sprintf(
				"%s/%s: enabled-tracing overhead %.2f%% (plain %d ns, traced %d ns; > allowed %.1f%%)",
				e.Scenario, e.Algo, e.OverheadPct, e.PlainNsPerSolve, e.TracedNsPerSolve, limit))
		}
	}
	return failures
}

// scaleGateProcs is the smallest GOMAXPROCS at which the parallel-compile
// speedup gates apply. Below it (laptops pinned to a core, 1–2 vCPU
// containers) parallel and serial resolve to nearly the same execution
// and the speedup carries no signal, so only the wall-clock catastrophe
// backstop runs; the baseline itself may legitimately be recorded on a
// single-core machine.
const scaleGateProcs = 4

// minScaleSpeedup is the parallel-compile floor on ≥scaleGateProcs-core
// runners: at least one scale preset must cold-compile ≥2× faster at full
// width than through the serial oracle.
const minScaleSpeedup = 2.0

// checkScale gates the parallel-compile tier. Wall-clock backstops apply
// whenever current and baseline measured the same workload size; the
// speedup gates additionally require a multicore runner (see
// scaleGateProcs) — and compare against the baseline's speedups only when
// the baseline was multicore too.
func checkScale(current, baseline *CoreReport) []string {
	var failures []string
	multicore := current.GOMAXPROCS >= scaleGateProcs

	base := make(map[string]*CoreScaleEntry, len(baseline.ScaleEntries))
	for i := range baseline.ScaleEntries {
		base[baseline.ScaleEntries[i].Scenario] = &baseline.ScaleEntries[i]
	}
	maxSpeedup := 0.0
	for i := range current.ScaleEntries {
		e := &current.ScaleEntries[i]
		if e.Speedup > maxSpeedup {
			maxSpeedup = e.Speedup
		}
		want := base[e.Scenario]
		if want == nil {
			continue
		}
		if want.Demands == e.Demands && want.SerialBuildNs > 0 &&
			e.SerialBuildNs > want.SerialBuildNs*nsCatastropheFactor {
			failures = append(failures, fmt.Sprintf(
				"%s: serial build %d ns vs baseline %d (%.2fx > catastrophic %gx backstop)",
				e.Scenario, e.SerialBuildNs, want.SerialBuildNs,
				float64(e.SerialBuildNs)/float64(want.SerialBuildNs), nsCatastropheFactor))
		}
		if multicore && baseline.GOMAXPROCS >= scaleGateProcs && want.Speedup > 0 &&
			e.Speedup < want.Speedup*0.75 {
			failures = append(failures, fmt.Sprintf(
				"%s: parallel compile speedup %.2fx vs baseline %.2fx (< 0.75x of baseline)",
				e.Scenario, e.Speedup, want.Speedup))
		}
	}
	if multicore && len(current.ScaleEntries) > 0 && maxSpeedup < minScaleSpeedup {
		failures = append(failures, fmt.Sprintf(
			"parallel compile: best scale-preset speedup %.2fx on %d cores (< required %.1fx)",
			maxSpeedup, current.GOMAXPROCS, minScaleSpeedup))
	}

	bbase := make(map[string]*CoreBatchEntry, len(baseline.BatchEntries))
	for i := range baseline.BatchEntries {
		b := &baseline.BatchEntries[i]
		bbase[b.Scenario+"/"+b.Algo] = b
	}
	for i := range current.BatchEntries {
		e := &current.BatchEntries[i]
		want := bbase[e.Scenario+"/"+e.Algo]
		if want == nil {
			continue
		}
		if want.Problems == e.Problems && want.Demands == e.Demands && want.LoopNs > 0 &&
			e.LoopNs > want.LoopNs*int64(nsCatastropheFactor) {
			failures = append(failures, fmt.Sprintf(
				"batch %s/%s: loop %d ns vs baseline %d (> catastrophic %gx backstop)",
				e.Scenario, e.Algo, e.LoopNs, want.LoopNs, nsCatastropheFactor))
		}
		if multicore && baseline.GOMAXPROCS >= scaleGateProcs && want.Speedup > 0 &&
			e.Speedup < want.Speedup*0.75 {
			failures = append(failures, fmt.Sprintf(
				"batch %s/%s: speedup %.2fx vs baseline %.2fx (< 0.75x of baseline)",
				e.Scenario, e.Algo, e.Speedup, want.Speedup))
		}
	}
	return failures
}
