package bench

// The distributed-runtime benchmark behind `schedbench -dist`:
// BENCH_core.json tracks the solver, BENCH_online.json the session path,
// this harness tracks the BSP execution substrate — the sharded
// worker-pool engine (core.Options.DistWorkers ≥ 0) against the
// goroutine-per-processor anchor (DistWorkers < 0) on the same protocol,
// network and seed. Two tiers:
//
//   - gate entries: moderate networks measured identically in quick and
//     full mode and regression-gated in CI (CheckDist);
//   - scale entries (full mode only): the 10^4–10^5-processor presets
//     (line-100k, random-tree-50k, caterpillar-20k) that demonstrate the
//     engine at the network sizes of the paper's round-complexity
//     claims. The blocking anchor is measured there too — a deliberate
//     multi-minute commitment when regenerating the baseline.
//
// Every run cross-checks that both engines produced byte-identical
// dist.Stats, so the benchmark doubles as an end-to-end equivalence
// tripwire.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"treesched/internal/core"
	"treesched/internal/scenario"
)

// DistPair is one tracked workload: a scenario preset, optionally
// resized. Zero override fields keep the preset defaults.
type DistPair struct {
	Scenario string
	Demands  int
	Size     int
	Networks int
	Scale    bool // full-mode-only tier, exempt from the regression gate
}

// DistGatePairs are the CI-gated workloads: small enough that the
// blocking anchor runs in seconds, measured at identical sizes in quick
// and full mode so the checked-in baseline stays comparable.
var DistGatePairs = []DistPair{
	{Scenario: "binary-fanout"}, // the paper-scale E2 workload
	{Scenario: "line-100k", Demands: 4000, Networks: 512},
	{Scenario: "random-tree-50k", Demands: 2500, Networks: 256},
	{Scenario: "caterpillar-20k", Demands: 2000, Networks: 128},
}

// DistScalePairs are the full-size large-network runs (full mode only).
var DistScalePairs = []DistPair{
	{Scenario: "line-100k", Scale: true},
	{Scenario: "random-tree-50k", Scale: true},
	{Scenario: "caterpillar-20k", Scale: true},
}

// DistEntry is the measured cost of one workload on both engines.
type DistEntry struct {
	Scenario string `json:"scenario"`
	Algo     string `json:"algo"`
	Demands  int    `json:"demands"`
	Networks int    `json:"networks"`
	Scale    bool   `json:"scale,omitempty"`
	// Workers is the pool engine's worker count (GOMAXPROCS at record
	// time); the goroutine gate is relative to it.
	Workers int `json:"workers"`

	// The protocol's network cost — identical on both engines by
	// construction (cross-checked every run).
	Rounds       int   `json:"rounds"`
	Aggregations int   `json:"aggregations"`
	Messages     int64 `json:"messages"`
	Entries      int64 `json:"entries"`

	// Pool engine (DistWorkers = 0). RoundsPerSec counts all collectives
	// (exchange rounds + aggregations) per second of solve wall time.
	PoolNs             float64 `json:"pool_ns"`
	PoolRoundsPerSec   float64 `json:"pool_rounds_per_sec"`
	PoolMsgsPerSec     float64 `json:"pool_msgs_per_sec"`
	PoolPeakGoroutines int     `json:"pool_peak_goroutines"`

	// Blocking anchor (DistWorkers = -1): one goroutine per processor,
	// single-mutex barrier.
	BlockingNs             float64 `json:"blocking_ns"`
	BlockingRoundsPerSec   float64 `json:"blocking_rounds_per_sec"`
	BlockingPeakGoroutines int     `json:"blocking_peak_goroutines"`

	// SpeedupVsBlocking = BlockingNs / PoolNs — the hardware-normalized
	// rounds/sec ratio the CI gate tracks.
	SpeedupVsBlocking float64 `json:"speedup_vs_blocking"`
}

// DistKey identifies an entry in the baseline map.
func (e *DistEntry) DistKey() string {
	return fmt.Sprintf("%s/%s@%d", e.Scenario, e.Algo, e.Demands)
}

// DistReport is the BENCH_dist.json document.
type DistReport struct {
	Note       string      `json:"note"`
	Regenerate string      `json:"regenerate"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Entries    []DistEntry `json:"entries"`
}

// goroutineSampler polls runtime.NumGoroutine in the background and
// reports the peak when stopped. The blocking engine's peak is ~n (one
// goroutine per processor); the pool engine's must stay near the worker
// count — that bound is part of the CheckDist gate.
type goroutineSampler struct {
	stop chan struct{}
	peak chan int
}

func startGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{stop: make(chan struct{}), peak: make(chan int, 1)}
	go func() {
		max := runtime.NumGoroutine()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				if g := runtime.NumGoroutine(); g > max {
					max = g
				}
				s.peak <- max
				return
			case <-tick.C:
				if g := runtime.NumGoroutine(); g > max {
					max = g
				}
			}
		}
	}()
	return s
}

func (s *goroutineSampler) stopAndPeak() int {
	close(s.stop)
	return <-s.peak
}

// distSolve runs the pair's protocol once on the chosen engine,
// measuring wall time and peak goroutines. The sampler itself and the
// test harness contribute a few goroutines — the gate allows for them.
func distSolve(c *core.Compiled, algo string, distWorkers int) (*core.DistributedResult, time.Duration, int, error) {
	a, ok := core.Lookup(algo)
	if !ok || !a.ReadsFixedRounds {
		return nil, 0, 0, fmt.Errorf("bench: %q is not a distributed algorithm", algo)
	}
	sampler := startGoroutineSampler()
	begin := time.Now()
	res, net, err := a.Run(c, core.Options{Seed: 1, DistWorkers: distWorkers})
	elapsed := time.Since(begin)
	peak := sampler.stopAndPeak()
	if err != nil {
		return nil, elapsed, peak, err
	}
	return &core.DistributedResult{Result: res, Net: *net}, elapsed, peak, nil
}

// distMeasure times one engine, repeating until targetDur of wall time
// is observed (runs are deterministic, so repetition only sheds
// scheduler noise; millisecond-scale workloads would otherwise gate on
// jitter) and reporting the best run. A first run always happens;
// targetDur 0 means exactly one.
func distMeasure(c *core.Compiled, algo string, distWorkers int, targetDur time.Duration) (*core.DistributedResult, time.Duration, int, error) {
	const maxRuns = 200
	var best, total time.Duration
	var bestR *core.DistributedResult
	peakMax := 0
	for i := 0; i < maxRuns; i++ {
		r, el, peak, err := distSolve(c, algo, distWorkers)
		if err != nil {
			return nil, 0, 0, err
		}
		if bestR == nil || el < best {
			best, bestR = el, r
		}
		if peak > peakMax {
			peakMax = peak
		}
		total += el
		if total >= targetDur {
			break
		}
	}
	return bestR, best, peakMax, nil
}

func (p DistPair) params() scenario.Params {
	return scenario.Params{Demands: p.Demands, Size: p.Size, Networks: p.Networks}
}

// distEntry measures one pair on both engines and cross-checks their
// Stats. targetDur is the per-engine repetition budget (0 = one run).
func distEntry(pair DistPair, targetDur time.Duration) (*DistEntry, error) {
	s, ok := scenario.Get(pair.Scenario)
	if !ok {
		return nil, fmt.Errorf("bench: unknown scenario %q", pair.Scenario)
	}
	prob, err := s.Generate(pair.params(), 1)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
	}
	c, err := core.Compile(prob, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
	}
	eff := s.Effective(pair.params())
	e := &DistEntry{
		Scenario: pair.Scenario,
		Algo:     s.DefaultAlgo,
		Demands:  eff.Demands,
		Networks: eff.Networks,
		Scale:    pair.Scale,
		Workers:  runtime.GOMAXPROCS(0),
	}

	pool, poolNs, poolPeak, err := distMeasure(c, e.Algo, 0, targetDur)
	if err != nil {
		return nil, fmt.Errorf("bench: %s pool: %v", pair.Scenario, err)
	}
	// The blocking anchor gets the same repetition budget; at gate sizes
	// one run is near a second so it rarely repeats, at scale (budget 0)
	// it runs exactly once — a deliberate multi-minute measurement.
	block, blockNs, blockPeak, err := distMeasure(c, e.Algo, -1, targetDur)
	if err != nil {
		return nil, fmt.Errorf("bench: %s blocking: %v", pair.Scenario, err)
	}
	if pool.Net != block.Net {
		return nil, fmt.Errorf("bench: %s: engines diverged: pool %+v vs blocking %+v — determinism bug",
			pair.Scenario, pool.Net, block.Net)
	}

	e.Rounds = pool.Net.Rounds
	e.Aggregations = pool.Net.Aggregations
	e.Messages = pool.Net.Messages
	e.Entries = pool.Net.Entries
	collectives := float64(e.Rounds + e.Aggregations)
	e.PoolNs = float64(poolNs.Nanoseconds())
	e.PoolRoundsPerSec = collectives / poolNs.Seconds()
	e.PoolMsgsPerSec = float64(e.Messages) / poolNs.Seconds()
	e.PoolPeakGoroutines = poolPeak
	e.BlockingNs = float64(blockNs.Nanoseconds())
	e.BlockingRoundsPerSec = collectives / blockNs.Seconds()
	e.BlockingPeakGoroutines = blockPeak
	e.SpeedupVsBlocking = e.BlockingNs / e.PoolNs
	return e, nil
}

// DistBench measures the tracked workloads and assembles the report.
// Quick measures only the gate tier, once per engine (the CI smoke);
// the checked-in baseline should be regenerated without it — which runs
// the scale tier too, including its multi-minute blocking anchors.
func DistBench(quick bool) (*DistReport, error) {
	report := &DistReport{
		Note: "BSP substrate: worker-pool engine (DistWorkers=0) vs goroutine-per-processor " +
			"anchor (DistWorkers=-1), same protocol/network/seed, byte-identical Stats " +
			"cross-checked per run; rounds/sec counts all collectives; scale entries are " +
			"the 10^4-10^5-processor presets and are exempt from the CI gate",
		Regenerate: "go run ./cmd/schedbench -dist -o BENCH_dist.json",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	target := 600 * time.Millisecond
	if quick {
		target = 200 * time.Millisecond
	}
	for _, pair := range DistGatePairs {
		e, err := distEntry(pair, target)
		if err != nil {
			return nil, err
		}
		report.Entries = append(report.Entries, *e)
	}
	if !quick {
		for _, pair := range DistScalePairs {
			e, err := distEntry(pair, 0)
			if err != nil {
				return nil, err
			}
			report.Entries = append(report.Entries, *e)
		}
	}
	return report, nil
}

// DistSmoke runs one scale preset at full size on the pool engine only —
// the CI large-network smoke (`schedbench -dist -smoke line-100k`).
// Returns a one-line summary.
func DistSmoke(name string) (string, error) {
	s, ok := scenario.Get(name)
	if !ok {
		return "", fmt.Errorf("bench: unknown scenario %q", name)
	}
	prob, err := s.Generate(scenario.Params{}, 1)
	if err != nil {
		return "", err
	}
	c, err := core.Compile(prob, 0)
	if err != nil {
		return "", err
	}
	r, elapsed, peak, err := distSolve(c, s.DefaultAlgo, 0)
	if err != nil {
		return "", err
	}
	workers := runtime.GOMAXPROCS(0)
	if peak > workers+16 {
		return "", fmt.Errorf("bench: smoke %s: peak %d goroutines exceeds workers+16 = %d",
			name, peak, workers+16)
	}
	return fmt.Sprintf(
		"smoke %s/%s: %d processors, %d rounds + %d aggregations, %d messages, %d selected, %s wall, peak %d goroutines (workers %d)",
		name, s.DefaultAlgo, len(prob.Demands), r.Net.Rounds, r.Net.Aggregations,
		r.Net.Messages, len(r.Selected), elapsed.Round(time.Millisecond), peak, workers), nil
}

// distGoroutineSlack is the gate's allowance above the worker count for
// the harness itself (main goroutine, sampler, runtime helpers).
const distGoroutineSlack = 16

// CheckDist compares a fresh gate-tier measurement against the
// checked-in baseline and errors when the substrate regressed:
//
//   - the pool-vs-blocking speedup (a same-machine rounds/sec ratio,
//     hardware-normalized) fell below (1−tolerance)× the recorded value
//     — e.g. 0.25 = fail below 0.75×;
//   - the absolute pool rounds/sec fell beyond the catastrophic
//     nsCatastropheFactor backstop (loose because CI hardware differs
//     from the baseline machine);
//   - the pool engine's goroutine peak exceeded workers + O(1) — the
//     scale property itself (checked on the current run, no baseline
//     needed).
//
// Entries present in only one report are ignored so the tracked set can
// evolve. Scale-tier entries are exempt from the baseline-relative gates
// (their timings are deliberate one-shot measurements); the absolute
// goroutine bound applies to every entry present — it is the scale
// property itself.
func CheckDist(current, baseline *DistReport, tolerance float64) error {
	base := make(map[string]*DistEntry, len(baseline.Entries))
	for i := range baseline.Entries {
		base[baseline.Entries[i].DistKey()] = &baseline.Entries[i]
	}
	var failures []string
	for i := range current.Entries {
		e := &current.Entries[i]
		if e.PoolPeakGoroutines > e.Workers+distGoroutineSlack {
			failures = append(failures, fmt.Sprintf(
				"%s: pool engine peaked at %d goroutines with %d workers (> workers+%d) — the scale property is broken",
				e.DistKey(), e.PoolPeakGoroutines, e.Workers, distGoroutineSlack))
		}
		if e.Scale {
			continue
		}
		want := base[e.DistKey()]
		if want == nil {
			continue
		}
		if want.SpeedupVsBlocking > 0 && e.SpeedupVsBlocking < want.SpeedupVsBlocking*(1-tolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s: pool speedup vs blocking %.2fx, baseline %.2fx (%.2fx < allowed %.2fx)",
				e.DistKey(), e.SpeedupVsBlocking, want.SpeedupVsBlocking,
				e.SpeedupVsBlocking/want.SpeedupVsBlocking, 1-tolerance))
		}
		if want.PoolRoundsPerSec > 0 && e.PoolRoundsPerSec < want.PoolRoundsPerSec/nsCatastropheFactor {
			failures = append(failures, fmt.Sprintf(
				"%s: pool %.0f rounds/sec vs baseline %.0f (beyond the catastrophic %gx backstop)",
				e.DistKey(), e.PoolRoundsPerSec, want.PoolRoundsPerSec, nsCatastropheFactor))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: distributed-runtime regression against BENCH_dist.json:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return nil
}
