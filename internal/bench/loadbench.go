package bench

// The traffic-scale harness behind `schedbench -load`: where the
// end-to-end benchmark (perfbench/) replays closed-loop cache regimes over
// HTTP, this drives service.Engine with open-loop traffic — arrivals fire
// on a clock regardless of completions, the regime a service facing
// millions of independent users actually lives in — and writes
// BENCH_load.json: per (arrival process × client concurrency) the
// closed-loop saturation rps, then open-loop p50/p99 latency measured from
// each request's scheduled arrival (queueing included), plus the
// coalescing and cache-hit rates of the singleflight + sharded-cache
// serving stack. A separate contention tier pits the default sharded
// caches against the single-lock oracle layout (CacheShards=1) on a
// result-hit-heavy closed loop, making the lock-layout win a number.
// CheckLoad gates the report in CI.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treesched/internal/instance"
	"treesched/internal/obs"
	"treesched/internal/online"
	"treesched/internal/scenario"
	"treesched/internal/service"
)

// LoadPair is one component of the traffic mix: a scenario preset, the
// algorithm driven over it, and sized-down parameters so a single solve
// is sub-millisecond-ish — load tests need request counts, not heavy
// individual requests.
type LoadPair struct {
	Scenario string
	Algo     string
	Params   scenario.Params
}

// loadMix is the Zipf-weighted scenario×algorithm population: index 0
// is the hottest. It spans the line path, the tree path, the narrow
// solver and a second tree shape so the compiled cache holds genuinely
// different models.
var loadMix = []LoadPair{
	{"videowall-line", "line-unit", scenario.Params{Demands: 64, Size: 24, Networks: 2}},
	{"caterpillar-backbone", "tree-unit", scenario.Params{Demands: 64, Size: 20, Networks: 2}},
	{"profit-ladder", "tree-unit", scenario.Params{Demands: 48, Size: 24, Networks: 2}},
	{"narrow-stream", "narrow", scenario.Params{Demands: 48, Size: 20, Networks: 2}},
	{"spider-hub", "tree-unit", scenario.Params{Demands: 48, Size: 24, Networks: 2}},
}

// Session-traffic fixture: every session arrival opens a session on
// this preset, resolves, adds one job (a duplicate of demand 0 under a
// fresh ID — same network, so always valid), resolves again through
// the delta path, and closes.
const (
	loadSessionScenario = "caterpillar-backbone"
	loadSessionAlgo     = "tree-unit"
)

var loadSessionParams = scenario.Params{Demands: 48, Size: 20, Networks: 2}

// Arrival process names.
const (
	ArrivalPoisson = "poisson"
	ArrivalBursty  = "bursty"
)

// loadBurstSize is the bursty process's herd width: arrivals land in
// simultaneous groups of this size, and half the groups are "herds" —
// every member asks for the same never-seen problem, the thundering
// herd the singleflight layer exists for.
const loadBurstSize = 8

// loadHotSeeds is the hot scenario-seed population: request keys are
// Zipf-skewed over pair × seed, so a handful of (problem, algorithm)
// keys dominate — the regime where result memoization and the sharded
// hit path carry the service.
const loadHotSeeds = 12

// loadClientLevels are the tracked concurrency levels: closed-loop
// client counts for the saturation columns, kept fixed across
// recorders so entries match between baseline and checker.
var loadClientLevels = []int{4, 16}

// LoadEntry is one measured (arrival process × concurrency) regime.
type LoadEntry struct {
	Arrival string `json:"arrival"`
	// Clients is the closed-loop client count of the saturation phase;
	// the open-loop phase derives its offered rate from that ceiling.
	Clients int `json:"clients"`
	// SessionShare is the configured fraction of arrivals that are
	// dynamic-session interactions instead of stateless solves.
	SessionShare float64 `json:"session_share"`

	// SaturationRPS is closed-loop throughput: Clients goroutines
	// issuing back-to-back from the mix.
	SaturationRPS float64 `json:"saturation_rps"`

	// Open-loop phase: arrivals scheduled at OfferedRPS (a fixed
	// fraction of saturation) fire on the clock whether or not earlier
	// requests finished.
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Requests    int64   `json:"requests"`
	Completed   int64   `json:"completed"`
	// Shed counts arrivals dropped at the in-flight cap — nonzero means
	// the offered rate outran the service for long enough to pile up
	// maxInFlight outstanding requests.
	Shed   int64 `json:"shed,omitempty"`
	Errors int64 `json:"errors,omitempty"`

	// Latency summarizes request latency (ns) measured from scheduled
	// arrival to completion — open-loop latency, queueing included —
	// on the repo's one quantile implementation (internal/obs).
	Latency obs.Summary `json:"latency"`

	// Serving-stack rates over the open-loop phase (deltas of the
	// engine's own counters divided by completed requests).
	SolvesCoalesced   int64   `json:"solves_coalesced"`
	CompilesCoalesced int64   `json:"compiles_coalesced"`
	CoalescingRate    float64 `json:"coalescing_rate"`
	ResultHitRate     float64 `json:"result_hit_rate"`
	CompiledHitRate   float64 `json:"compiled_hit_rate"`
}

// LoadShardEntry is one contention measurement: the identical
// result-hit-heavy closed loop against the single-lock oracle layout
// (CacheShards=1) and the default sharded layout.
type LoadShardEntry struct {
	Clients int `json:"clients"`
	// Shards is the effective shard count of the sharded column
	// (CacheShards=0 resolved against GOMAXPROCS).
	Shards         int     `json:"shards"`
	SingleShardRPS float64 `json:"single_shard_rps"`
	ShardedRPS     float64 `json:"sharded_rps"`
	// Speedup = ShardedRPS / SingleShardRPS: >1 means the sharded
	// layout measurably reduced lock contention. ~1.0 on a single-core
	// recorder; the CI gate judges it on >=4-core runners only.
	Speedup float64 `json:"speedup"`
}

// LoadRecorderEntry quantifies the flight recorder's serving cost on
// fixed work: per-client arrival schedules are drawn once from the
// saturation mix, then every engine — the pre-recorder oracle
// (DisableRecorder), the recorder on with span sampling off (sample=0)
// and the fully traced mode (sample=1) — replays the byte-for-byte
// identical traffic. Repetitions rotate the mode order (so a
// process-level drift never lands on one mode) and each mode keeps its
// best wall clock: min-of-K over identical work is robust against GC
// and scheduler noise that dwarfs the true overhead per sample.
type LoadRecorderEntry struct {
	Clients int `json:"clients"`
	Rounds  int `json:"rounds"`
	// BaselineRPS is the DisableRecorder oracle; RecorderRPS the recorder
	// at sample=0; TracedRPS the sample=1 mode. The schedserver binary
	// ships sample 0.01, which traces every request as sample=1 does and
	// keeps fewer of the trees; no arm runs it.
	BaselineRPS float64 `json:"baseline_rps"`
	RecorderRPS float64 `json:"recorder_rps"`
	TracedRPS   float64 `json:"traced_rps"`
	// RecorderOverhead/TracedOverhead are the denoised throughput costs
	// vs the baseline (0 = free; 0.03 = 3% slower). RecorderOverhead is
	// the gated number: the default serving configuration must stay
	// within the recorder-overhead tolerance.
	RecorderOverhead float64 `json:"recorder_overhead"`
	TracedOverhead   float64 `json:"traced_overhead"`
}

// LoadReport is the BENCH_load.json document.
type LoadReport struct {
	Note       string `json:"note"`
	Regenerate string `json:"regenerate"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Quick marks a sized-down -quick run (shorter phases; rates and
	// quantiles remain comparable, totals do not).
	Quick           bool                `json:"quick,omitempty"`
	Entries         []LoadEntry         `json:"entries"`
	ShardEntries    []LoadShardEntry    `json:"shard_entries"`
	RecorderEntries []LoadRecorderEntry `json:"recorder_entries"`
}

// arrival is one scheduled request of the open-loop phase.
type arrival struct {
	offset  time.Duration
	run     func(ctx context.Context, e *service.Engine) error
	session bool
}

// loadWorkload owns the deterministic request generators. One instance
// per entry, seeded per (arrival process, clients) so every run of the
// harness replays the same traffic.
type loadWorkload struct {
	rng      *rand.Rand
	pairZipf *rand.Zipf
	seedZipf *rand.Zipf
	coldSeq  int64 // next never-seen scenario seed
	jobSeq   int64 // unique session job ids
	donor    instance.Demand
	sessions float64 // session share of arrivals
}

func newLoadWorkload(seed int64, sessionShare float64) (*loadWorkload, error) {
	s, ok := scenario.Get(loadSessionScenario)
	if !ok {
		return nil, fmt.Errorf("bench: unknown load session scenario %q", loadSessionScenario)
	}
	donorProblem, err := s.Generate(loadSessionParams, 1)
	if err != nil {
		return nil, fmt.Errorf("bench: load session donor: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	return &loadWorkload{
		rng: rng,
		// s=1.4 over the pair population and the hot seed window: the
		// head pair×seed combinations dominate, the tail stays warm.
		pairZipf: rand.NewZipf(rng, 1.4, 1, uint64(len(loadMix)-1)),
		seedZipf: rand.NewZipf(rng, 1.4, 1, uint64(loadHotSeeds-1)),
		coldSeq:  1_000_000, // disjoint from the hot window
		donor:    donorProblem.Demands[0],
		sessions: sessionShare,
	}, nil
}

// solveArrival builds a stateless solve against pair p with the given
// scenario seed.
func solveArrival(p LoadPair, seed int64) arrival {
	req := &service.Request{
		Algo:           p.Algo,
		Scenario:       p.Scenario,
		ScenarioSeed:   seed,
		ScenarioParams: p.Params,
	}
	return arrival{run: func(ctx context.Context, e *service.Engine) error {
		_, err := e.Solve(ctx, req)
		return err
	}}
}

// sessionArrival builds one full session interaction: open, resolve,
// add one job, delta-resolve, close.
func (w *loadWorkload) sessionArrival() arrival {
	jobID := 10_000_000 + atomic.AddInt64(&w.jobSeq, 1)
	donor := w.donor
	return arrival{session: true, run: func(ctx context.Context, e *service.Engine) error {
		info, err := e.OpenSession(&service.SessionRequest{
			Algo:           loadSessionAlgo,
			Scenario:       loadSessionScenario,
			ScenarioSeed:   1,
			ScenarioParams: loadSessionParams,
		})
		if err != nil {
			return err
		}
		if _, err := e.SessionEvents(ctx, info.SessionID, []online.Event{{Op: online.OpResolve}}); err != nil {
			return sessionLoadErr(err)
		}
		if _, err := e.SessionEvents(ctx, info.SessionID, []online.Event{
			{Op: online.OpAdd, Job: &online.Job{ID: jobID, Demand: donor}},
			{Op: online.OpResolve},
		}); err != nil {
			return sessionLoadErr(err)
		}
		if err := e.CloseSession(info.SessionID); err != nil {
			return sessionLoadErr(err)
		}
		return nil
	}}
}

// sessionLoadErr tolerates LRU/idle eviction racing a load-generator
// session: an evicted session is correct engine behavior under
// pressure, not a workload failure.
func sessionLoadErr(err error) error {
	if errors.Is(err, service.ErrSessionNotFound) {
		return nil
	}
	return err
}

// hotArrival draws a Zipf-weighted (pair, hot seed) solve.
func (w *loadWorkload) hotArrival() arrival {
	p := loadMix[w.pairZipf.Uint64()]
	return solveArrival(p, int64(w.seedZipf.Uint64())+1)
}

// coldArrival draws a never-before-seen problem on a Zipf pair.
func (w *loadWorkload) coldArrival() arrival {
	p := loadMix[w.pairZipf.Uint64()]
	w.coldSeq++
	return solveArrival(p, w.coldSeq)
}

// drawClosed draws one closed-loop (saturation) arrival: the hot mix
// plus the configured session share, with a thin cold stream so the
// compiled path stays exercised.
func (w *loadWorkload) drawClosed() arrival {
	r := w.rng.Float64()
	switch {
	case r < w.sessions:
		return w.sessionArrival()
	case r < w.sessions+0.05:
		return w.coldArrival()
	default:
		return w.hotArrival()
	}
}

// poissonSchedule lays out n arrivals with exponential inter-arrival
// gaps at the offered rate: hot mix + session share + a thin
// independent cold stream.
func (w *loadWorkload) poissonSchedule(n int, offeredRPS float64) []arrival {
	sched := make([]arrival, 0, n)
	var t float64 // seconds
	for i := 0; i < n; i++ {
		t += w.rng.ExpFloat64() / offeredRPS
		// Same mix proportions as the saturation phase: the offered rate
		// is derived from that ceiling, so the open-loop traffic must
		// cost the same per request on average.
		a := w.drawClosed()
		a.offset = time.Duration(t * float64(time.Second))
		sched = append(sched, a)
	}
	return sched
}

// burstySchedule lays out n arrivals in simultaneous bursts of
// loadBurstSize with exponential gaps between bursts (burst starts are
// Poisson at rate offered/burstSize, so the mean rate matches). Half
// the bursts are coalescing herds: every member requests the same
// fresh problem.
func (w *loadWorkload) burstySchedule(n int, offeredRPS float64) []arrival {
	sched := make([]arrival, 0, n)
	var t float64
	for len(sched) < n {
		t += w.rng.ExpFloat64() * float64(loadBurstSize) / offeredRPS
		offset := time.Duration(t * float64(time.Second))
		herd := w.rng.Float64() < 0.5
		var herdArrival arrival
		if herd {
			herdArrival = w.coldArrival()
		}
		for b := 0; b < loadBurstSize && len(sched) < n; b++ {
			var a arrival
			switch {
			case herd:
				a = herdArrival // identical request, same instant
			case w.rng.Float64() < w.sessions*2:
				// Sessions keep their share: they only appear in
				// non-herd bursts, which are half the arrivals.
				a = w.sessionArrival()
			default:
				a = w.hotArrival()
			}
			a.offset = offset
			sched = append(sched, a)
		}
	}
	return sched
}

// loadEngine builds the engine under test from cfg. CompileWorkers=1
// keeps each request's cost flat (no intra-request fan-out competing
// with the load's own concurrency); what cfg leaves zero is the serving
// default.
func loadEngine(cfg service.Config) *service.Engine {
	cfg.CompileWorkers, cfg.MaxSessions = 1, 512
	return service.New(cfg)
}

// saturate measures closed-loop throughput: clients goroutines issuing
// back-to-back from per-client deterministic schedules. The first
// third of dur is an unmeasured warmup (caches fill, the scheduler
// settles) so the measured window reflects steady state — the offered
// open-loop rate is derived from this number, so its variance feeds
// straight into shed/latency noise.
func saturate(e *service.Engine, clients int, dur time.Duration, sessionShare float64, seed int64) (rps float64, err error) {
	ctx := context.Background()
	var total, errs atomic.Int64
	warmupOver := time.Now().Add(dur / 3)
	deadline := warmupOver.Add(dur)
	var wg sync.WaitGroup
	workloads := make([]*loadWorkload, clients)
	for i := range workloads {
		if workloads[i], err = newLoadWorkload(seed+int64(i)*7919, sessionShare); err != nil {
			return 0, err
		}
	}
	var begin atomic.Int64 // ns; set once by the first goroutine past warmup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(w *loadWorkload) {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(deadline) {
					return
				}
				measured := now.After(warmupOver)
				if measured {
					begin.CompareAndSwap(0, now.UnixNano())
				}
				if e := w.drawClosed().run(ctx, e); e != nil {
					errs.Add(1)
				}
				if measured {
					total.Add(1)
				}
			}
		}(workloads[i])
	}
	wg.Wait()
	if n := errs.Load(); n > 0 {
		return 0, fmt.Errorf("bench: %d saturation requests failed", n)
	}
	elapsed := float64(time.Now().UnixNano()-begin.Load()) / 1e9
	if elapsed <= 0 {
		return 0, fmt.Errorf("bench: empty saturation window")
	}
	return float64(total.Load()) / elapsed, nil
}

// maxInFlight caps outstanding open-loop requests; arrivals beyond it
// are shed (counted, never silently dropped) so a saturated run
// degrades like a real service with admission control instead of
// exhausting memory.
const maxInFlight = 512

// runOpenLoop dispatches the schedule on the clock and measures each
// request from its scheduled arrival to completion.
func runOpenLoop(e *service.Engine, sched []arrival) (hist *obs.Histogram, completed, shed, errs int64) {
	ctx := context.Background()
	hist = new(obs.Histogram)
	var completedA, shedA, errsA atomic.Int64
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		a := &sched[i]
		due := start.Add(a.offset)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			shedA.Add(1)
			continue
		}
		wg.Add(1)
		go func(a *arrival, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			err := a.run(ctx, e)
			hist.Observe(time.Since(due).Nanoseconds())
			completedA.Add(1)
			if err != nil {
				errsA.Add(1)
			}
		}(a, due)
	}
	wg.Wait()
	return hist, completedA.Load(), shedA.Load(), errsA.Load()
}

// loadPhases are the per-phase durations, shrunk by -quick.
type loadPhases struct {
	saturate time.Duration
	openLoop time.Duration
	maxReqs  int
}

func phasesFor(quick bool) loadPhases {
	if quick {
		return loadPhases{saturate: 350 * time.Millisecond, openLoop: 900 * time.Millisecond, maxReqs: 12_000}
	}
	return loadPhases{saturate: 1500 * time.Millisecond, openLoop: 3 * time.Second, maxReqs: 60_000}
}

// openLoopLoadFactor is the offered-rate fraction of measured
// saturation: high enough that queueing is real (p99 >> p50), low
// enough that an open-loop run converges instead of diverging.
const openLoopLoadFactor = 0.5

// loadSessionShare is the default sessions-vs-solves ratio of the
// tracked entries.
const loadSessionShare = 0.05

// measureLoadEntry runs one (arrival × clients) regime end to end on a
// fresh engine.
func measureLoadEntry(arrivalProc string, clients int, ph loadPhases, quick bool) (*LoadEntry, error) {
	e := loadEngine(service.Config{})
	defer e.Close()
	entry := &LoadEntry{Arrival: arrivalProc, Clients: clients, SessionShare: loadSessionShare}

	// Phase 1: closed-loop saturation (also warms the hot mix into the
	// caches, exactly what a steady-state service looks like).
	sat, err := saturate(e, clients, ph.saturate, loadSessionShare, 20_000+int64(clients))
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%d: %v", arrivalProc, clients, err)
	}
	entry.SaturationRPS = sat

	// Phase 2: open loop at a fixed fraction of that ceiling.
	offered := sat * openLoopLoadFactor
	if offered < 1 {
		offered = 1
	}
	n := int(offered * ph.openLoop.Seconds())
	if n > ph.maxReqs {
		n = ph.maxReqs
	}
	if n < 64 {
		n = 64
	}
	w, err := newLoadWorkload(30_000+int64(clients), loadSessionShare)
	if err != nil {
		return nil, err
	}
	var sched []arrival
	switch arrivalProc {
	case ArrivalPoisson:
		sched = w.poissonSchedule(n, offered)
	case ArrivalBursty:
		sched = w.burstySchedule(n, offered)
	default:
		return nil, fmt.Errorf("bench: unknown arrival process %q", arrivalProc)
	}

	before := e.Metrics()
	beginOpen := time.Now()
	hist, completed, shed, errCount := runOpenLoop(e, sched)
	elapsed := time.Since(beginOpen).Seconds()
	after := e.Metrics()

	entry.OfferedRPS = offered
	entry.Requests = int64(len(sched))
	entry.Completed = completed
	entry.Shed = shed
	entry.Errors = errCount
	if elapsed > 0 {
		entry.AchievedRPS = float64(completed) / elapsed
	}
	entry.Latency = hist.Summarize()
	entry.SolvesCoalesced = after.SolvesCoalesced - before.SolvesCoalesced
	entry.CompilesCoalesced = after.CompilesCoalesced - before.CompilesCoalesced
	if completed > 0 {
		entry.CoalescingRate = float64(entry.SolvesCoalesced) / float64(completed)
		entry.ResultHitRate = float64(after.ResultHits-before.ResultHits) / float64(completed)
		entry.CompiledHitRate = clampRate(float64(after.CompiledHits-before.CompiledHits) / float64(after.CompiledHits-before.CompiledHits+after.CompiledMisses-before.CompiledMisses))
	}
	return entry, nil
}

func clampRate(r float64) float64 {
	if r != r { // NaN: no observations
		return 0
	}
	return r
}

// measureRecorderEntry runs the recorder-overhead tier: rounds of the
// mixed closed loop rotating between the three recorder configurations
// on paired seeds (each round's three engines replay identical traffic),
// each configuration keeping its best round.
func measureRecorderEntry(clients int, ph loadPhases, quick bool) (*LoadRecorderEntry, error) {
	reps, perClient := 4, 4000
	if quick {
		reps, perClient = 2, 600
	}
	// Pre-draw deterministic per-client schedules once; every engine in
	// every repetition replays exactly this traffic. Session job ids and
	// cold seeds are fixed at draw time, so "identical" holds
	// byte-for-byte across engines.
	scheds := make([][]arrival, clients)
	for i := range scheds {
		w, err := newLoadWorkload(50_000+int64(clients)+int64(i)*7919, loadSessionShare)
		if err != nil {
			return nil, err
		}
		sched := make([]arrival, perClient)
		for j := range sched {
			sched[j] = w.drawClosed()
		}
		scheds[i] = sched
	}
	// One arm per recorder configuration: off (DisableRecorder, the
	// pre-recorder oracle), on (span sampling off, sample=0) and traced
	// (sample=1: every request records its span timeline).
	// Each round runs on a fresh engine so every round does identical
	// work; building and closing the engine sits inside the timed region
	// and is orders of magnitude cheaper than the replay.
	recorder := func(name string, cfg service.Config) arm {
		return arm{name, func(int) error {
			e := loadEngine(cfg)
			defer e.Close()
			return replayFixed(e, scheds)
		}}
	}
	res, err := measureArms(plan{rounds: reps, calls: 1},
		recorder("off", service.Config{DisableRecorder: true}),
		recorder("on", service.Config{}),
		recorder("traced", service.Config{TraceSample: 1}))
	if err != nil {
		return nil, fmt.Errorf("bench: recorder: %v", err)
	}
	total := float64(clients * perClient)
	rps := func(k int) float64 { return total / time.Duration(res[k].bestNs()).Seconds() }
	baseRPS := rps(0)
	overhead := func(v float64) float64 { return max(0, 1-v/baseRPS) }
	return &LoadRecorderEntry{
		Clients:          clients,
		Rounds:           reps,
		BaselineRPS:      baseRPS,
		RecorderRPS:      rps(1),
		TracedRPS:        rps(2),
		RecorderOverhead: overhead(rps(1)),
		TracedOverhead:   overhead(rps(2)),
	}, nil
}

// replayFixed runs every pre-drawn client schedule to completion on e.
func replayFixed(e *service.Engine, scheds [][]arrival) error {
	ctx := context.Background()
	var errs atomic.Int64
	var wg sync.WaitGroup
	for _, sched := range scheds {
		wg.Add(1)
		go func(sched []arrival) {
			defer wg.Done()
			for _, a := range sched {
				if a.run(ctx, e) != nil {
					errs.Add(1)
				}
			}
		}(sched)
	}
	wg.Wait()
	if n := errs.Load(); n > 0 {
		return fmt.Errorf("%d requests failed", n)
	}
	return nil
}

// shardContentionRPS measures the result-hit-heavy closed loop on an
// engine with the given shard layout: hot keys are prewarmed, then
// clients hammer cache hits — the regime where the cache lock is the
// entire hot path.
func shardContentionRPS(cacheShards, clients int, dur time.Duration) (rps float64, shards int, err error) {
	e := loadEngine(service.Config{CacheShards: cacheShards})
	defer e.Close()
	shards = e.Metrics().CacheShards

	// Prewarm every hot (pair, seed) key once, serially.
	ctx := context.Background()
	var reqs []*service.Request
	for pi := range loadMix {
		p := loadMix[pi]
		for seed := int64(1); seed <= loadHotSeeds; seed++ {
			req := &service.Request{Algo: p.Algo, Scenario: p.Scenario, ScenarioSeed: seed, ScenarioParams: p.Params}
			if _, err := e.Solve(ctx, req); err != nil {
				return 0, shards, fmt.Errorf("bench: shard prewarm %s/%d: %v", p.Scenario, seed, err)
			}
			reqs = append(reqs, req)
		}
	}

	var total, errs atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				req := reqs[rng.Intn(len(reqs))]
				if _, err := e.Solve(ctx, req); err != nil {
					errs.Add(1)
				}
				total.Add(1)
			}
		}(int64(40_000 + c))
	}
	wg.Wait()
	elapsed := time.Since(begin).Seconds()
	if n := errs.Load(); n > 0 {
		return 0, shards, fmt.Errorf("bench: %d shard-contention requests failed", n)
	}
	return float64(total.Load()) / elapsed, shards, nil
}

// LoadBench measures every tracked regime and assembles the report.
func LoadBench(quick bool) (*LoadReport, error) {
	ph := phasesFor(quick)
	report := &LoadReport{
		Note: "open-loop traffic through internal/service: per (arrival process x clients), " +
			"closed-loop saturation rps, then open-loop latency at " +
			fmt.Sprintf("%.0f%%", openLoopLoadFactor*100) + " of saturation measured from scheduled " +
			"arrival (queueing included), with singleflight coalescing and cache-hit rates; " +
			"shard_entries = the same hit-heavy closed loop on single-lock vs sharded caches " +
			"(speedup gates apply only on >=4-core runners); recorder_entries = the mixed closed " +
			"loop with the flight recorder off / on (sample=0) / fully traced " +
			"(sample=1), gated on the sample=0 overhead",
		Regenerate: "go run ./cmd/schedbench -load -o BENCH_load.json",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
	for _, arrivalProc := range []string{ArrivalPoisson, ArrivalBursty} {
		for _, clients := range loadClientLevels {
			entry, err := measureLoadEntry(arrivalProc, clients, ph, quick)
			if err != nil {
				return nil, err
			}
			report.Entries = append(report.Entries, *entry)
		}
	}

	contentionClients := loadClientLevels[len(loadClientLevels)-1]
	single, _, err := shardContentionRPS(1, contentionClients, ph.saturate)
	if err != nil {
		return nil, err
	}
	sharded, shards, err := shardContentionRPS(0, contentionClients, ph.saturate)
	if err != nil {
		return nil, err
	}
	se := LoadShardEntry{Clients: contentionClients, Shards: shards, SingleShardRPS: single, ShardedRPS: sharded}
	if single > 0 {
		se.Speedup = sharded / single
	}
	report.ShardEntries = append(report.ShardEntries, se)

	re, err := measureRecorderEntry(contentionClients, ph, quick)
	if err != nil {
		return nil, err
	}
	report.RecorderEntries = append(report.RecorderEntries, *re)
	return report, nil
}

// Load-gate bounds. The latency/saturation gates use regressionTol.
const (
	// minShardSpeedup is the contention floor on >=scaleGateProcs-core
	// runners: the sharded layout must beat the single lock by at least
	// this factor on the hit-heavy loop.
	minShardSpeedup = 1.1
	// recorderOverheadTol / recorderOverheadTolQuick cap the serving
	// default's (recorder on, sampling off) denoised throughput cost vs
	// the DisableRecorder oracle. The gate is a within-run ratio, so it
	// applies on every runner; the quick tolerance is loose because
	// sub-second windows carry real scheduler noise.
	recorderOverheadTol      = 0.03
	recorderOverheadTolQuick = 0.25
)

// id names an entry in gate lines and the baseline index.
func (e *LoadEntry) id() string { return fmt.Sprintf("%s/%d", e.Arrival, e.Clients) }

// CheckLoad gates a fresh report: the structural sanity of every entry
// and the recorder overhead (a within-run ratio) on any runner; the
// p99/saturation regression gates against the baseline only when the run
// matches its GOMAXPROCS and its quick/full size (wall-clock numbers
// across machines or window lengths carry no signal); and the
// shard-contention floor only on ≥scaleGateProcs-core runners.
func CheckLoad(current, baseline *LoadReport) []Gate {
	var gates gateList
	base := index(baseline.Entries, (*LoadEntry).id)
	regression := sameProcs(current.GOMAXPROCS, baseline.GOMAXPROCS)
	if regression == "" {
		regression = sameSize(current.Quick, baseline.Quick)
	}
	arrivals, levels := map[string]bool{}, map[int]bool{}
	for i := range current.Entries {
		e := &current.Entries[i]
		id := e.id()
		arrivals[e.Arrival], levels[e.Clients] = true, true

		var bad []string
		if e.Completed <= 0 {
			bad = append(bad, "no completed requests")
		}
		if e.Errors > 0 {
			bad = append(bad, fmt.Sprintf("%d request errors", e.Errors))
		}
		if e.SaturationRPS <= 0 || e.AchievedRPS <= 0 {
			bad = append(bad, "non-positive throughput")
		}
		if e.Latency.P50Ns <= 0 || e.Latency.P99Ns < e.Latency.P50Ns {
			bad = append(bad, fmt.Sprintf("implausible latency quantiles p50=%d p99=%d", e.Latency.P50Ns, e.Latency.P99Ns))
		}
		for _, r := range []struct {
			name string
			v    float64
		}{{"coalescing_rate", e.CoalescingRate}, {"result_hit_rate", e.ResultHitRate}, {"compiled_hit_rate", e.CompiledHitRate}} {
			if r.v < 0 || r.v > 1 {
				bad = append(bad, fmt.Sprintf("%s %g outside [0,1]", r.name, r.v))
			}
		}
		if len(bad) > 0 {
			gates.check(id+" sanity", false, "%s", strings.Join(bad, "; "))
		} else {
			gates.check(id+" sanity", true, "%d completed, %.0f rps, p50 %.2f ms, p99 %.2f ms",
				e.Completed, e.AchievedRPS, float64(e.Latency.P50Ns)/1e6, float64(e.Latency.P99Ns)/1e6)
		}
		// Bursty herds coalesce whenever two requests can genuinely
		// overlap; a single-core runner serializes goroutines and may
		// legitimately record ~0.
		if e.Arrival == ArrivalBursty {
			if current.GOMAXPROCS < 2 {
				gates.inert(id+" herds coalesce", fmt.Sprintf("needs ≥ 2 cores, this run has %d", current.GOMAXPROCS))
			} else {
				gates.check(id+" herds coalesce", e.SolvesCoalesced > 0, "%d coalesced solves", e.SolvesCoalesced)
			}
		}

		want := base[id]
		switch {
		case want == nil:
			gates.inert(id+" saturation and p99 vs baseline", "not in baseline")
		case regression != "":
			gates.inert(id+" saturation vs baseline", regression)
			gates.inert(id+" p99 vs baseline", regression)
		default:
			gates.atLeast(id+" saturation vs baseline", e.SaturationRPS, want.SaturationRPS, 1-regressionTol, "rps")
			gates.atMost(id+" p99 vs baseline", float64(e.Latency.P99Ns)/1e6, float64(want.Latency.P99Ns)/1e6, 1+regressionTol, "ms")
		}
	}
	gates.check("coverage", len(arrivals) >= 2 && len(levels) >= 2,
		"%d arrival processes x %d concurrency levels, want ≥ 2x2", len(arrivals), len(levels))

	gates.check("recorder-overhead entries", len(current.RecorderEntries) > 0, "%d", len(current.RecorderEntries))
	recTol := recorderOverheadTol
	if current.Quick {
		recTol = recorderOverheadTolQuick
	}
	for _, re := range current.RecorderEntries {
		id := fmt.Sprintf("recorder/%d clients", re.Clients)
		gates.check(id+" throughput", re.BaselineRPS > 0 && re.RecorderRPS > 0 && re.TracedRPS > 0,
			"off %.0f, on %.0f, traced %.0f rps", re.BaselineRPS, re.RecorderRPS, re.TracedRPS)
		gates.check(id+" overhead", re.RecorderOverhead <= recTol,
			"%.1f%% vs the DisableRecorder oracle, allowed ≤ %.1f%%", re.RecorderOverhead*100, recTol*100)
	}

	gates.check("shard-contention entries", len(current.ShardEntries) > 0, "%d", len(current.ShardEntries))
	best, baseBest := 0.0, 0.0
	for _, se := range current.ShardEntries {
		best = max(best, se.Speedup)
		gates.check(fmt.Sprintf("shards/%d clients sanity", se.Clients),
			se.SingleShardRPS > 0 && se.ShardedRPS > 0 && se.Shards >= 2,
			"single lock %.0f rps, sharded %.0f rps on %d shards (want ≥ 2)", se.SingleShardRPS, se.ShardedRPS, se.Shards)
	}
	for _, se := range baseline.ShardEntries {
		baseBest = max(baseBest, se.Speedup)
	}
	if current.GOMAXPROCS < scaleGateProcs {
		gates.inert("sharded caches contention speedup", multicore(current.GOMAXPROCS, scaleGateProcs))
	} else {
		gates.check("sharded caches contention speedup", best >= minShardSpeedup,
			"%.2fx on %d cores, required ≥ %.2fx vs single lock", best, current.GOMAXPROCS, minShardSpeedup)
	}
	if why := multicore(current.GOMAXPROCS, baseline.GOMAXPROCS); why != "" {
		gates.inert("sharded caches contention speedup vs baseline", why)
	} else {
		gates.atLeast("sharded caches contention speedup vs baseline", best, baseBest, 0.75, "x")
	}
	return gates
}
