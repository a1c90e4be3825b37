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
	"slices"
	"time"

	"treesched/internal/core"
	"treesched/internal/dist"
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

	// Pool engine (DistWorkers = 0), best of the entry's runs.
	// RoundsPerSec counts all collectives (exchange rounds +
	// aggregations) per second of solve wall time. AllocsPerSolve is the
	// heap allocations per pool solve over every run; it depends on the
	// worker count, so it is gated only at the baseline's GOMAXPROCS.
	PoolNs             float64 `json:"pool_ns"`
	PoolRoundsPerSec   float64 `json:"pool_rounds_per_sec"`
	PoolMsgsPerSec     float64 `json:"pool_msgs_per_sec"`
	PoolPeakGoroutines int     `json:"pool_peak_goroutines"`
	PoolAllocsPerSolve float64 `json:"pool_allocs_per_solve"`

	// Blocking anchor (DistWorkers = -1): one goroutine per processor,
	// single-mutex barrier.
	BlockingNs             float64 `json:"blocking_ns"`
	BlockingRoundsPerSec   float64 `json:"blocking_rounds_per_sec"`
	BlockingPeakGoroutines int     `json:"blocking_peak_goroutines"`

	// SpeedupVsBlocking is the median over alternating pool/blocking
	// pairs of blocking wall / pool wall — the within-run ratio the CI
	// gate tracks at the baseline's GOMAXPROCS.
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

// sampleGoroutines polls runtime.NumGoroutine in the background until
// the returned function is called, which stops the poller and returns
// the peak. The blocking engine's peak is ~n (one goroutine per
// processor); the pool engine's must stay near the worker count — that
// bound is part of the CheckDist gate.
func sampleGoroutines() (stop func() int) {
	done, peak := make(chan struct{}), make(chan int, 1)
	go func() {
		most := runtime.NumGoroutine()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				peak <- max(most, runtime.NumGoroutine())
				return
			case <-tick.C:
				most = max(most, runtime.NumGoroutine())
			}
		}
	}()
	return func() int {
		close(done)
		return <-peak
	}
}

// distAlgo looks up a distributed algorithm of the registry.
func distAlgo(name string) (core.Algorithm, error) {
	a, ok := core.Lookup(name)
	if !ok || !a.ReadsFixedRounds {
		return core.Algorithm{}, fmt.Errorf("bench: %q is not a distributed algorithm", name)
	}
	return a, nil
}

// runSampled runs a's protocol once on the chosen engine and returns the
// peak goroutine count sampled while it ran. The sampler itself and the
// test harness contribute a few goroutines — the gate allows for them.
func runSampled(a core.Algorithm, c *core.Compiled, distWorkers int) (*core.Result, *dist.Stats, int, error) {
	stop := sampleGoroutines()
	res, net, err := a.Run(c, core.Options{Seed: 1, DistWorkers: distWorkers})
	return res, net, stop(), err
}

func (p DistPair) params() scenario.Params {
	return scenario.Params{Demands: p.Demands, Size: p.Size, Networks: p.Networks}
}

// distGateRounds is the fewest engine pairs a gate-tier entry runs.
const distGateRounds = 5

// distEntry measures one pair on both engines, alternating them in
// pairs, and cross-checks that every run produced the warm-up run's
// Stats. A
// gate-tier entry runs at least distGateRounds pairs and keeps adding
// pairs until budget of wall time is spent; a scale-tier entry runs one
// pair whatever the budget — its blocking run is a deliberate
// multi-minute measurement.
func distEntry(pair DistPair, budget time.Duration) (*DistEntry, error) {
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
	a, err := distAlgo(s.DefaultAlgo)
	if err != nil {
		return nil, err
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

	// One untimed pool run builds the compiled problem's lazy model, which
	// would otherwise land on the first pair's pool run, and gives the
	// Stats every timed run must reproduce. Its goroutine peak counts.
	_, ref, warmPeak, err := runSampled(a, c, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
	}
	peaks := [2]int{warmPeak, 0}
	engine := func(k int, name string, distWorkers int) arm {
		return arm{name, func(int) error {
			_, net, peak, err := runSampled(a, c, distWorkers)
			peaks[k] = max(peaks[k], peak)
			if err != nil {
				return err
			}
			if *net != *ref {
				return fmt.Errorf("engines diverged: %+v vs %+v — determinism bug", *net, *ref)
			}
			return nil
		}}
	}
	p := plan{rounds: distGateRounds, budget: budget, calls: 1}
	if pair.Scale {
		p = plan{rounds: 1, calls: 1}
	}
	res, err := measureArms(p, engine(0, "pool", 0), engine(1, "blocking", -1))
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
	}
	pool, block := &res[0], &res[1]

	e.Rounds = ref.Rounds
	e.Aggregations = ref.Aggregations
	e.Messages = ref.Messages
	e.Entries = ref.Entries
	collectives := float64(e.Rounds + e.Aggregations)
	poolSec, blockSec := time.Duration(pool.bestNs()).Seconds(), time.Duration(block.bestNs()).Seconds()
	e.PoolNs = float64(pool.bestNs())
	e.PoolRoundsPerSec = collectives / poolSec
	e.PoolMsgsPerSec = float64(e.Messages) / poolSec
	e.PoolPeakGoroutines = peaks[0]
	e.PoolAllocsPerSolve = pool.allocs
	e.BlockingNs = float64(block.bestNs())
	e.BlockingRoundsPerSec = collectives / blockSec
	e.BlockingPeakGoroutines = peaks[1]
	e.SpeedupVsBlocking = medianRatio(block, pool)
	return e, nil
}

// DistBench measures the tracked workloads and assembles the report.
// Quick measures only the gate tier (the CI smoke); the checked-in
// baseline should be regenerated without it — which runs the scale tier
// too, including its multi-minute blocking anchors.
func DistBench(quick bool) (*DistReport, error) {
	report := &DistReport{
		Note: "BSP substrate: worker-pool engine (DistWorkers=0) vs goroutine-per-processor " +
			"anchor (DistWorkers=-1), same protocol/network/seed, run in alternating pairs " +
			"(gate tier: >=5 pairs, until the budget is spent; scale tier: one pair), " +
			"byte-identical Stats cross-checked per run; ns columns are best-of, " +
			"speedup_vs_blocking is the median per-pair ratio; rounds/sec counts all " +
			"collectives; scale entries are the 10^4-10^5-processor presets and are exempt " +
			"from the CI gate",
		Regenerate: "go run ./cmd/schedbench -dist -o BENCH_dist.json",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	pairs, budget := slices.Concat(DistGatePairs, DistScalePairs), 1200*time.Millisecond
	if quick {
		pairs, budget = DistGatePairs, 400*time.Millisecond
	}
	for _, pair := range pairs {
		e, err := distEntry(pair, budget)
		if err != nil {
			return nil, err
		}
		report.Entries = append(report.Entries, *e)
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
	a, err := distAlgo(s.DefaultAlgo)
	if err != nil {
		return "", err
	}
	begin := time.Now()
	r, net, peak, err := runSampled(a, c, 0)
	elapsed := time.Since(begin)
	if err != nil {
		return "", err
	}
	workers := runtime.GOMAXPROCS(0)
	if peak > workers+distGoroutineSlack {
		return "", fmt.Errorf("bench: smoke %s: peak %d goroutines exceeds workers+%d = %d",
			name, peak, distGoroutineSlack, workers+distGoroutineSlack)
	}
	return fmt.Sprintf(
		"smoke %s/%s: %d processors, %d rounds + %d aggregations, %d messages, %d selected, %s wall, peak %d goroutines (workers %d)",
		name, s.DefaultAlgo, len(prob.Demands), net.Rounds, net.Aggregations,
		net.Messages, len(r.Selected), elapsed.Round(time.Millisecond), peak, workers), nil
}

// distGoroutineSlack is the gate's allowance above the worker count for
// the harness itself (main goroutine, sampler, runtime helpers).
const distGoroutineSlack = 16

// CheckDist gates a fresh measurement against the checked-in baseline:
//
//   - the pool engine's goroutine peak at most workers + O(1) — the
//     scale property itself, checked on the current run at any
//     GOMAXPROCS;
//   - the pool-vs-blocking speedup (a within-run ratio of alternating
//     pairs) at least 1−regressionTol times the baseline's, engaged only
//     when the run's GOMAXPROCS equals the baseline's: the ratio itself
//     moves with GOMAXPROCS, so no tolerance makes a comparison across
//     values meaningful;
//   - the pool allocations per solve at most 1+regressionTol times the
//     baseline's, engaged under the same condition: the pool engine's
//     worker count, and with it its allocations, follows GOMAXPROCS;
//   - the pool rounds/sec within the nsCatastropheFactor backstop.
//
// Scale-tier entries are exempt from the baseline-relative gates (their
// timings are deliberate one-shot measurements). Entries present only in
// the baseline are ignored so the tracked set can evolve.
func CheckDist(current, baseline *DistReport) []Gate {
	var gates gateList
	base := index(baseline.Entries, (*DistEntry).DistKey)
	for i := range current.Entries {
		e := &current.Entries[i]
		key := e.DistKey()
		gates.check(key+" pool goroutine peak", e.PoolPeakGoroutines <= e.Workers+distGoroutineSlack,
			"%d goroutines with %d workers, allowed ≤ workers+%d", e.PoolPeakGoroutines, e.Workers, distGoroutineSlack)
		want := base[key]
		switch {
		case e.Scale:
			gates.inert(key+" speedup and rounds/sec", "scale tier is timed once")
			continue
		case want == nil:
			gates.inert(key+" speedup and rounds/sec", "not in baseline")
			continue
		}
		if why := sameProcs(current.GOMAXPROCS, baseline.GOMAXPROCS); why != "" {
			gates.inert(key+" speedup vs blocking", why)
			gates.inert(key+" pool allocs/solve", why)
		} else {
			gates.atLeast(key+" speedup vs blocking", e.SpeedupVsBlocking, want.SpeedupVsBlocking, 1-regressionTol, "x")
			gates.atMost(key+" pool allocs/solve", e.PoolAllocsPerSolve, want.PoolAllocsPerSolve, 1+regressionTol, "allocs")
		}
		gates.atLeast(key+" pool rounds/sec backstop", e.PoolRoundsPerSec, want.PoolRoundsPerSec, 1/nsCatastropheFactor, "rounds/s")
	}
	return gates
}
