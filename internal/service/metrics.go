package service

import (
	"sort"
	"time"

	"treesched/internal/obs"
)

// metrics aggregates per-request counters on internal/obs primitives.
// Every counter is registered in a per-engine obs.Registry so one
// instrument backs both the JSON snapshot (GET /metrics) and the
// Prometheus exposition (GET /metrics.prom). All hot-path updates are
// lock-free: plain counters are sharded atomics, and the per-algorithm
// request counters are prebuilt from the algorithm registry at
// construction — countAlgo is a map read plus an atomic add, with no
// mutex on any request path. Snapshot returns a consistent-enough copy
// (counters are monotone, so slight skew between fields is acceptable).
type metrics struct {
	reg *obs.Registry

	requests       *obs.Counter
	errors         *obs.Counter
	resultHits     *obs.Counter
	resultMisses   *obs.Counter
	compiledHits   *obs.Counter
	compiledMisses *obs.Counter
	solveNanos     *obs.Counter // total wall time spent in actual solves
	inFlight       *obs.Gauge
	// solvesCoalesced counts requests served as singleflight followers
	// (they waited on another request's identical in-flight solve);
	// compilesCoalesced counts compilations avoided the same way.
	solvesCoalesced   *obs.Counter
	compilesCoalesced *obs.Counter

	sessionsOpened      *obs.Counter
	sessionsClosed      *obs.Counter
	sessionsEvicted     *obs.Counter
	sessionEvents       *obs.Counter
	sessionResolves     *obs.Counter
	sessionIncremental  *obs.Counter
	sessionFullCompiles *obs.Counter
	sessionCached       *obs.Counter
	sessionSolveNanos   *obs.Counter // session resolve wall time, kept out of solveNanos so MeanSolveMillis (SolveNanos/ResultMisses) stays a /solve metric

	// solveLatency/sessionSolveLatency are log-bucketed nanosecond
	// histograms over the same intervals the *Nanos counters sum.
	solveLatency        *obs.Histogram
	sessionSolveLatency *obs.Histogram

	// byAlgo maps each registered algorithm name to its request counter.
	// The map is built complete in newMetrics and never mutated after, so
	// concurrent countAlgo calls race on nothing.
	byAlgo map[string]*obs.Counter
}

func newMetrics(algoNames []string) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:            reg,
		requests:       reg.Counter("sched_requests_total", "Solve requests received (including cache hits and errors)."),
		errors:         reg.Counter("sched_errors_total", "Solve requests that returned an error."),
		resultHits:     reg.Counter("sched_result_cache_hits_total", "Solve requests served from the memoized result cache."),
		resultMisses:   reg.Counter("sched_result_cache_misses_total", "Solve requests that missed the memoized result cache (they then coalesce onto an in-flight solve or execute one)."),
		compiledHits:   reg.Counter("sched_compiled_cache_hits_total", "Solves that reused a cached compiled model."),
		compiledMisses: reg.Counter("sched_compiled_cache_misses_total", "Solves whose compiled-cache lookup missed, including coalesced followers and lost-race rechecks; sched_compiles_coalesced_total counts the waits."),
		solveNanos:     reg.Counter("sched_solve_nanos_total", "Total wall nanoseconds spent executing solvers."),
		inFlight:       reg.Gauge("sched_in_flight", "Solves currently holding a worker slot."),

		solvesCoalesced:   reg.Counter("sched_solves_coalesced_total", "Requests served by waiting on another request's identical in-flight solve (singleflight followers)."),
		compilesCoalesced: reg.Counter("sched_compiles_coalesced_total", "Compilations avoided by waiting on another request's in-flight compile of the same problem."),

		sessionsOpened:      reg.Counter("sched_sessions_opened_total", "Dynamic sessions opened."),
		sessionsClosed:      reg.Counter("sched_sessions_closed_total", "Dynamic sessions closed by clients."),
		sessionsEvicted:     reg.Counter("sched_sessions_evicted_total", "Dynamic sessions evicted (LRU or idle timeout)."),
		sessionEvents:       reg.Counter("sched_session_events_total", "Session events applied (add/remove/resolve)."),
		sessionResolves:     reg.Counter("sched_session_resolves_total", "Session resolves requested."),
		sessionIncremental:  reg.Counter("sched_session_resolve_modes_total", "Session resolves by recompilation mode.", obs.Label{Name: "mode", Value: "incremental"}),
		sessionFullCompiles: reg.Counter("sched_session_resolve_modes_total", "Session resolves by recompilation mode.", obs.Label{Name: "mode", Value: "full"}),
		sessionCached:       reg.Counter("sched_session_resolve_modes_total", "Session resolves by recompilation mode.", obs.Label{Name: "mode", Value: "cached"}),
		sessionSolveNanos:   reg.Counter("sched_session_solve_nanos_total", "Total wall nanoseconds spent in session resolves."),

		solveLatency:        reg.Histogram("sched_solve_latency_ns", "Per-solve wall latency in nanoseconds (result-cache misses only)."),
		sessionSolveLatency: reg.Histogram("sched_session_solve_latency_ns", "Per-resolve wall latency in nanoseconds (cached resolves observe near-zero)."),

		byAlgo: make(map[string]*obs.Counter, len(algoNames)),
	}
	for _, name := range algoNames {
		m.byAlgo[name] = reg.Counter("sched_requests_by_algo_total",
			"Solve requests by algorithm name.", obs.Label{Name: "algo", Value: name})
	}
	return m
}

// countAlgo bumps the per-algorithm request counter. Callers only pass
// names validated against the algorithm registry, which is exactly the
// key set byAlgo was built from; an unknown name is dropped rather than
// reintroducing a lock to grow the map.
func (m *metrics) countAlgo(name string) {
	if c, ok := m.byAlgo[name]; ok {
		c.Inc()
	}
}

// MetricsSnapshot is the exported point-in-time view of the engine's
// counters, serialized by GET /metrics.
type MetricsSnapshot struct {
	Requests       int64 `json:"requests"`
	Errors         int64 `json:"errors"`
	ResultHits     int64 `json:"result_cache_hits"`
	ResultMisses   int64 `json:"result_cache_misses"`
	CompiledHits   int64 `json:"compiled_cache_hits"`
	CompiledMisses int64 `json:"compiled_cache_misses"`
	// SolvesCoalesced counts requests served as singleflight followers:
	// they waited on another request's identical in-flight solve instead
	// of executing their own. CompilesCoalesced is the same for the
	// compilation flight (requests differing in algorithm/options share
	// one in-flight compile of their common problem).
	SolvesCoalesced   int64 `json:"solves_coalesced"`
	CompilesCoalesced int64 `json:"compiles_coalesced"`
	// CacheShards is the effective lock-shard count of the compiled and
	// result caches (Config.CacheShards after GOMAXPROCS derivation).
	CacheShards int   `json:"cache_shards"`
	InFlight    int64 `json:"in_flight"`
	// SolveNanos is total wall time spent executing solvers via /solve
	// and /batch (cache hits contribute nothing), so requests/sec and
	// mean solve latency are both derivable. Session resolve time is
	// accounted separately in SessionSolveNanos — the two pools never
	// mix, so each mean stays a faithful latency for its own endpoint.
	SolveNanos int64 `json:"solve_nanos_total"`
	// MeanSolveMillis is SolveNanos averaged over result-cache misses —
	// a /solve-endpoint metric only. It is 0 (not NaN) until the first
	// miss, and session resolves never move it; see
	// MeanSessionSolveMillis for the session-side counterpart.
	MeanSolveMillis float64 `json:"mean_solve_millis"`
	// SolveLatency summarizes the solve-latency histogram (count, mean
	// and p50/p90/p99/max nanoseconds) over the same solves SolveNanos
	// sums.
	SolveLatency obs.Summary `json:"solve_latency"`
	// CompiledEntries/ResultEntries are current cache occupancies.
	CompiledEntries int `json:"compiled_cache_entries"`
	ResultEntries   int `json:"result_cache_entries"`
	// Dynamic-session counters. SessionsOpen is the current gauge;
	// SessionsEvicted counts LRU/idle evictions (observable liveness of
	// the eviction policy); SessionResolvesIncremental vs
	// SessionResolvesFull split recompilations by whether the WithJobs
	// delta path served them.
	SessionsOpen               int   `json:"sessions_open"`
	SessionsOpened             int64 `json:"sessions_opened"`
	SessionsClosed             int64 `json:"sessions_closed"`
	SessionsEvicted            int64 `json:"sessions_evicted"`
	SessionEvents              int64 `json:"session_events"`
	SessionResolves            int64 `json:"session_resolves"`
	SessionResolvesIncremental int64 `json:"session_resolves_incremental"`
	SessionResolvesFull        int64 `json:"session_resolves_full"`
	SessionResolvesCached      int64 `json:"session_resolves_cached"`
	SessionSolveNanos          int64 `json:"session_solve_nanos_total"`
	// MeanSessionSolveMillis is SessionSolveNanos averaged over the
	// resolves that actually solved (incremental + full; cached resolves
	// spend no solver time). It is the session-side analogue of
	// MeanSolveMillis, which historically read 0 under session-only
	// traffic because ResultMisses stays 0 on that path.
	MeanSessionSolveMillis float64 `json:"mean_session_solve_millis"`
	// SessionSolveLatency summarizes the session resolve-latency
	// histogram over the same resolves SessionSolveNanos sums.
	SessionSolveLatency obs.Summary `json:"session_solve_latency"`
	// ByAlgo counts requests per algorithm name.
	ByAlgo map[string]int64 `json:"requests_by_algo"`
	// AlgoNames is ByAlgo's key set in sorted order, for deterministic
	// iteration by clients.
	AlgoNames []string `json:"algo_names"`
	// SLO reports each endpoint class's standing against its latency
	// objective ("solve" covers /solve and /batch lines, "session"
	// covers session event batches and schedule resolves). Additive:
	// every historical snapshot key above is unchanged.
	SLO map[string]SLOSnapshot `json:"slo"`
}

// SLOSnapshot is one endpoint class's SLO standing. Good/Total are the
// accounted requests (client errors spend no budget and are excluded);
// the burn rates are the bad fraction divided by the error budget
// (1 - Target) — sustained values above 1 mean the objective will be
// missed. BurnRate5m reads a ~5-minute sliding window, BurnRateTotal
// the whole uptime.
type SLOSnapshot struct {
	ObjectiveMillis float64 `json:"objective_millis"`
	Target          float64 `json:"target"`
	Good            int64   `json:"good"`
	Total           int64   `json:"total"`
	BurnRate5m      float64 `json:"burn_rate_5m"`
	BurnRateTotal   float64 `json:"burn_rate_total"`
}

func sloSnapshot(s *obs.SLO) SLOSnapshot {
	return SLOSnapshot{
		ObjectiveMillis: float64(s.ObjectiveNs) / float64(time.Millisecond),
		Target:          s.Target,
		Good:            s.Good.Load(),
		Total:           s.Total.Load(),
		BurnRate5m:      s.BurnRate(),
		BurnRateTotal:   s.TotalBurnRate(),
	}
}

func (m *metrics) snapshot(compiledEntries, resultEntries, sessionsOpen int) MetricsSnapshot {
	s := MetricsSnapshot{
		Requests:          m.requests.Load(),
		Errors:            m.errors.Load(),
		ResultHits:        m.resultHits.Load(),
		ResultMisses:      m.resultMisses.Load(),
		CompiledHits:      m.compiledHits.Load(),
		CompiledMisses:    m.compiledMisses.Load(),
		SolvesCoalesced:   m.solvesCoalesced.Load(),
		CompilesCoalesced: m.compilesCoalesced.Load(),
		InFlight:          m.inFlight.Load(),
		SolveNanos:        m.solveNanos.Load(),
		SolveLatency:      m.solveLatency.Summarize(),
		CompiledEntries:   compiledEntries,
		ResultEntries:     resultEntries,
		ByAlgo:            make(map[string]int64),

		SessionsOpen:               sessionsOpen,
		SessionsOpened:             m.sessionsOpened.Load(),
		SessionsClosed:             m.sessionsClosed.Load(),
		SessionsEvicted:            m.sessionsEvicted.Load(),
		SessionEvents:              m.sessionEvents.Load(),
		SessionResolves:            m.sessionResolves.Load(),
		SessionResolvesIncremental: m.sessionIncremental.Load(),
		SessionResolvesFull:        m.sessionFullCompiles.Load(),
		SessionResolvesCached:      m.sessionCached.Load(),
		SessionSolveNanos:          m.sessionSolveNanos.Load(),
		SessionSolveLatency:        m.sessionSolveLatency.Summarize(),
	}
	if s.ResultMisses > 0 {
		s.MeanSolveMillis = float64(s.SolveNanos) / float64(s.ResultMisses) / float64(time.Millisecond)
	}
	if solved := s.SessionResolvesIncremental + s.SessionResolvesFull; solved > 0 {
		s.MeanSessionSolveMillis = float64(s.SessionSolveNanos) / float64(solved) / float64(time.Millisecond)
	}
	for k, c := range m.byAlgo {
		s.ByAlgo[k] = c.Load()
		s.AlgoNames = append(s.AlgoNames, k)
	}
	sort.Strings(s.AlgoNames)
	return s
}
