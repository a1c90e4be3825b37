// Package service is the concurrent scheduling service: a bounded worker
// pool executing every solver the library exposes, an LRU cache of
// compiled problem models (internal/core.Compiled — paths, π(d), layer
// groups, conflict structures built once and reused), a memoization
// cache of full results for identical (problem, algorithm, options)
// requests, and structured per-request metrics.
//
// Determinism is preserved end to end: responses contain only solver
// output (never latency or cache state), problems hash canonically, and
// equal requests produce byte-identical JSON — whether served cold, from
// the compiled cache, or from the result cache. cmd/schedserver exposes
// the engine over HTTP (see http.go).
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"treesched/internal/core"
	"treesched/internal/dist"
	"treesched/internal/instance"
	"treesched/internal/obs"
	"treesched/internal/scenario"
	"treesched/internal/verify"
	"treesched/internal/wire"
)

// ErrBadRequest tags request-side failures (unknown algorithm, invalid
// problem, solver preconditions like non-unit heights). The HTTP layer
// maps it to 400; everything else is 500.
var ErrBadRequest = errors.New("service: bad request")

// ErrClosed is returned by Solve after Close.
var ErrClosed = errors.New("service: engine closed")

// Config sizes an Engine. Zero fields take the listed defaults.
type Config struct {
	// Workers bounds concurrently executing solves (default GOMAXPROCS).
	Workers int
	// CompileWorkers bounds the model-build fan-out of each compilation
	// the engine performs (core.Compiled.SetCompileWorkers semantics: 0 =
	// GOMAXPROCS, 1 = serial). Compilation output never depends on it, so
	// it is not part of any cache key. Default 0.
	CompileWorkers int
	// CompiledCacheSize is the max number of compiled problem models kept
	// (default 64).
	CompiledCacheSize int
	// ResultCacheSize is the max number of memoized responses (default 512).
	ResultCacheSize int
	// CacheShards sets the lock-shard count of both caches: 0 derives
	// from GOMAXPROCS, 1 selects the single-shard path (byte-equivalent
	// to the pre-sharding single-lock LRU — the equivalence oracle, same
	// pattern as CompileWorkers=1), larger values round up to a power of
	// two. Shards change lock layout only, never which keys are cached
	// or what responses say, so the knob is not part of any cache key.
	CacheShards int
	// MaxDemands rejects problems with more demands (default 20000).
	MaxDemands int
	// MaxExactNodes caps the branch-and-bound budget of "exact" requests
	// (default 2e6) so a single request cannot monopolize a worker.
	MaxExactNodes int64
	// MaxSessions bounds concurrently open dynamic sessions; the least
	// recently used session is evicted past it (default 64).
	MaxSessions int
	// SessionIdleTimeout evicts sessions untouched for this long
	// (default 15m). Sweeps run on session operations.
	SessionIdleTimeout time.Duration

	// Flight recorder (request-scoped observability; see obs.Recorder).
	//
	// TraceSample is the probability an ordinary completed request
	// retains its span timeline in the recorder's recent class. Any
	// value > 0 turns span recording on for every request — slow and
	// errored requests then always keep their timelines regardless of
	// the dice — and the schedserver binary ships 0.01, so its every
	// solve is traced. 0 (the Config zero value) disables span trees
	// entirely: responses are byte-identical to an uninstrumented engine
	// and no Trace is allocated anywhere (the recorder still keeps its
	// constant-cost request records).
	TraceSample float64
	// SlowThreshold classifies completions slower than this into the
	// recorder's slow class (default 500ms).
	SlowThreshold time.Duration
	// RecorderRequests is the per-class retained-record capacity
	// (default 128); RecorderEvents the event-log capacity (default
	// 256). DisableRecorder removes the recorder entirely — the
	// pre-recorder oracle path, used by the overhead benchmarks.
	RecorderRequests int
	RecorderEvents   int
	DisableRecorder  bool
	// RequestLog, when non-nil, receives one NDJSON line per completed
	// request (the recorder's ReqRecord schema, span timelines
	// stripped). Writes are serialized by the engine.
	RequestLog io.Writer

	// SLO objectives per endpoint class (solve covers /solve and /batch
	// lines; session covers session resolves/schedules). A request is
	// "good" when it succeeds within the objective; client errors spend
	// no budget. Defaults: 250ms at a 0.99 target.
	SolveSLO   time.Duration
	SessionSLO time.Duration
	SLOTarget  float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CompiledCacheSize <= 0 {
		c.CompiledCacheSize = 64
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 512
	}
	if c.MaxDemands <= 0 {
		c.MaxDemands = 20000
	}
	if c.MaxExactNodes <= 0 {
		c.MaxExactNodes = 2_000_000
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = 15 * time.Minute
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 500 * time.Millisecond
	}
	if c.RecorderRequests <= 0 {
		c.RecorderRequests = 128
	}
	if c.RecorderEvents <= 0 {
		c.RecorderEvents = 256
	}
	if c.SolveSLO <= 0 {
		c.SolveSLO = 250 * time.Millisecond
	}
	if c.SessionSLO <= 0 {
		c.SessionSLO = 250 * time.Millisecond
	}
	if c.SLOTarget <= 0 || c.SLOTarget >= 1 {
		c.SLOTarget = 0.99
	}
	return c
}

// Request is one solve job. Exactly one of Problem or Scenario must be
// set: Problem supplies a full instance inline, Scenario names a preset
// of internal/scenario generated deterministically from ScenarioSeed and
// ScenarioParams.
type Request struct {
	// Algo names the algorithm; see Algorithms() for the registry.
	Algo string `json:"algo"`

	Problem *instance.Problem `json:"problem,omitempty"`

	Scenario       string          `json:"scenario,omitempty"`
	ScenarioSeed   int64           `json:"scenario_seed,omitempty"`
	ScenarioParams scenario.Params `json:"scenario_params,omitzero"`

	// Epsilon is the ε of the (c+ε) guarantees (default 0.25).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Seed drives the deterministic Luby priorities.
	Seed uint64 `json:"seed,omitempty"`
	// FixedRounds selects the paper's deterministic schedule on dist-*
	// algorithms.
	FixedRounds bool `json:"fixed_rounds,omitempty"`
	// MaxNodes caps the "exact" branch and bound (0 = engine default).
	MaxNodes int64 `json:"max_nodes,omitempty"`
}

// Response is the deterministic solver output for a request. It carries
// no latency or cache-state fields on purpose: equal requests must
// marshal byte-identically regardless of how they were served. Cached
// responses are shared — treat as immutable.
type Response struct {
	Algorithm      string  `json:"algorithm"`
	Scenario       string  `json:"scenario,omitempty"`
	Profit         float64 `json:"profit"`
	DualUpperBound float64 `json:"dual_upper_bound,omitempty"`
	CertifiedRatio float64 `json:"certified_ratio,omitempty"`
	Bound          float64 `json:"bound,omitempty"`
	Lambda         float64 `json:"lambda,omitempty"`
	Demands        int     `json:"demands"`
	Scheduled      int     `json:"scheduled"`

	Selected []instance.Inst `json:"selected"`

	// Distributed-driver network cost (dist-* algorithms only).
	Rounds         int   `json:"rounds,omitempty"`
	Messages       int64 `json:"messages,omitempty"`
	Aggregations   int   `json:"aggregations,omitempty"`
	PayloadEntries int64 `json:"payload_entries,omitempty"`
}

// Algorithms returns the registered algorithm names, sorted (the
// core.Algorithms registry).
func Algorithms() []string {
	var out []string
	for _, a := range core.Algorithms() {
		out = append(out, a.Name)
	}
	return out
}

// Engine is the concurrent solve engine. Safe for concurrent use.
type Engine struct {
	cfg         Config
	cacheShards int           // effective shard count (resolveShards(cfg.CacheShards))
	sem         chan struct{} // bounded worker pool
	compiled    *shardedCache[*core.Compiled]
	results     *shardedCache[*Response]
	bodies      *shardedCache[bodyEntry] // /solve bodies the result cache has answered (http.go)
	sessions    *sessionManager
	met         *metrics
	start       time.Time

	// rec is the flight recorder (nil only with Config.DisableRecorder —
	// every use is nil-safe). sloSolve/sloSession account the two
	// endpoint classes against their latency objectives.
	rec        *obs.Recorder
	sloSolve   *obs.SLO
	sloSession *obs.SLO
	reqLogMu   sync.Mutex // serializes Config.RequestLog writes

	// solveFlight coalesces concurrent identical requests (same result
	// key) into one executing solve; compileFlight coalesces concurrent
	// compilations of one problem (same canonical hash) across requests
	// that differ only in algorithm or options.
	solveFlight   flightGroup[*Response]
	compileFlight flightGroup[*core.Compiled]
	// solveGate/compileGate, when set (tests only), run at the start of
	// every solve-flight / compile-flight leader — the singleflight
	// contract tests park the leader there until all followers have
	// joined.
	solveGate   func(key string)
	compileGate func(hash string)

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// New builds an Engine from cfg (zero value = all defaults).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	shards := resolveShards(cfg.CacheShards)
	e := &Engine{
		cfg:         cfg,
		cacheShards: shards,
		sem:         make(chan struct{}, cfg.Workers),
		compiled:    newShardedCache[*core.Compiled](cfg.CompiledCacheSize, shards),
		results:     newShardedCache[*Response](cfg.ResultCacheSize, shards),
		bodies:      newShardedCache[bodyEntry](cfg.ResultCacheSize, shards),
		sessions:    newSessionManager(cfg.MaxSessions, cfg.SessionIdleTimeout),
		met:         newMetrics(Algorithms()),
		start:       time.Now(),
	}
	// Occupancy and uptime are owned by their structures, not by counters;
	// expose them as gauges computed at scrape time.
	e.met.reg.GaugeFunc("sched_compiled_cache_entries", "Compiled problem models currently cached.",
		func() float64 { return float64(e.compiled.len()) })
	e.met.reg.GaugeFunc("sched_result_cache_entries", "Memoized responses currently cached.",
		func() float64 { return float64(e.results.len()) })
	e.met.reg.GaugeFunc("sched_sessions_open", "Dynamic sessions currently open.",
		func() float64 { return float64(e.sessions.len()) })
	e.met.reg.GaugeFunc("sched_uptime_seconds", "Seconds since the engine was constructed.",
		func() float64 { return e.Uptime().Seconds() })

	// SLO accounting: good/total counters registered per class (so the
	// raw series scrape), burn rates computed at scrape time.
	e.sloSolve = e.newSLO("solve", cfg.SolveSLO, cfg.SLOTarget)
	e.sloSession = e.newSLO("session", cfg.SessionSLO, cfg.SLOTarget)

	if !cfg.DisableRecorder {
		e.rec = obs.NewRecorder(obs.RecorderConfig{
			PerClass: cfg.RecorderRequests,
			Events:   cfg.RecorderEvents,
			SlowNs:   cfg.SlowThreshold.Nanoseconds(),
			Sample:   cfg.TraceSample,
		})
		e.met.reg.GaugeFunc("sched_active_requests", "Requests currently tracked in flight by the recorder.",
			func() float64 { return float64(e.rec.ActiveCount()) })
		if cfg.RequestLog != nil {
			e.rec.OnRecord = e.writeRequestLog
		}
		// Cache evictions become recorder events — today they are visible
		// only as occupancy deltas.
		e.compiled.setOnEvict(func(key string) { e.rec.Event("evict_compiled", "", key) })
		e.results.setOnEvict(func(key string) { e.rec.Event("evict_result", "", key) })
	}
	return e
}

// newSLO registers one endpoint class's SLO series and builds its
// tracker. Burn rates are exported as gauges: window="5m" reacts to a
// fresh regression, window="total" is the lifetime budget spend.
func (e *Engine) newSLO(class string, objective time.Duration, target float64) *obs.SLO {
	label := obs.Label{Name: "class", Value: class}
	good := e.met.reg.Counter("sched_slo_good_total",
		"Requests that succeeded within their class's latency objective.", label)
	total := e.met.reg.Counter("sched_slo_requests_total",
		"Requests accounted against the class's latency objective (client errors excluded).", label)
	s := obs.NewSLO(objective, target, good, total)
	e.met.reg.GaugeFunc("sched_slo_burn_rate",
		"Error-budget burn rate: bad fraction / (1 - target); sustained >1 means the objective will be missed.",
		s.BurnRate, label, obs.Label{Name: "window", Value: "5m"})
	e.met.reg.GaugeFunc("sched_slo_burn_rate",
		"Error-budget burn rate: bad fraction / (1 - target); sustained >1 means the objective will be missed.",
		s.TotalBurnRate, label, obs.Label{Name: "window", Value: "total"})
	return s
}

// writeRequestLog is the recorder's OnRecord sink when Config.RequestLog
// is set: one NDJSON line per completed request, span timelines
// stripped (the /debug endpoints serve those), writes serialized.
func (e *Engine) writeRequestLog(rec *obs.ReqRecord) {
	line := *rec
	line.Trace = nil
	data, err := json.Marshal(&line)
	if err != nil {
		return
	}
	data = append(data, '\n')
	e.reqLogMu.Lock()
	e.cfg.RequestLog.Write(data) // nolint:errcheck — logging must not fail requests
	e.reqLogMu.Unlock()
}

// Recorder exposes the engine's flight recorder (nil when disabled):
// the /debug handlers and tests read it.
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Close marks the engine closed and waits for in-flight solves to drain.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *Engine) enter() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.wg.Add(1)
	return nil
}

// Metrics returns a snapshot of the engine counters.
func (e *Engine) Metrics() MetricsSnapshot {
	s := e.met.snapshot(e.compiled.len(), e.results.len(), e.sessions.len())
	s.CacheShards = e.cacheShards
	s.SLO = map[string]SLOSnapshot{
		"solve":   sloSnapshot(e.sloSolve),
		"session": sloSnapshot(e.sloSession),
	}
	return s
}

// WritePrometheus renders the engine's metrics in the Prometheus text
// exposition format (v0.0.4). Every counter in the JSON snapshot is
// present under a sched_-prefixed name; latency histograms appear as
// summaries with p50/p90/p99 quantile series.
func (e *Engine) WritePrometheus(w io.Writer) error {
	return e.met.reg.WritePrometheus(w)
}

// Uptime reports time since New.
func (e *Engine) Uptime() time.Duration { return time.Since(e.start) }

// problemSource checks the problem a request names, inline or as a
// scenario, and returns a lazy materializer for it; field names the
// inline form in errors ("problem" on /solve, "network" on a session).
// The demand limit and a scenario's generator limits are checked here,
// before anything is generated, a cache key formed or a worker slot
// consumed. A scenario also gets its cache key, (name, effective params,
// seed) — its generator is deterministic — so cache hits skip generation
// entirely. An inline problem's key, the hash of its wire form, is left
// to /solve (hashProblem): a session keys no cache on its network.
func (e *Engine) problemSource(req *Request, field string) (key string, materialize func() (*instance.Problem, error), err error) {
	switch {
	case req.Problem != nil && req.Scenario != "":
		return "", nil, fmt.Errorf("%w: set either %s or scenario, not both", ErrBadRequest, field)
	case req.Problem != nil:
		p := req.Problem
		if len(p.Demands) > e.cfg.MaxDemands {
			return "", nil, fmt.Errorf("%w: %d demands exceeds the limit %d", ErrBadRequest, len(p.Demands), e.cfg.MaxDemands)
		}
		return "", func() (*instance.Problem, error) { return p, nil }, nil
	case req.Scenario != "":
		s, ok := scenario.Get(req.Scenario)
		if !ok {
			return "", nil, fmt.Errorf("%w: unknown scenario %q (see GET /scenarios)", ErrBadRequest, req.Scenario)
		}
		eff := s.Effective(req.ScenarioParams)
		if eff.Demands > e.cfg.MaxDemands {
			return "", nil, fmt.Errorf("%w: %d demands exceeds the limit %d", ErrBadRequest, eff.Demands, e.cfg.MaxDemands)
		}
		if err := eff.Validate(); err != nil {
			return "", nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		key = fmt.Sprintf("scenario:%s|m=%d|n=%d|r=%d|seed=%d",
			s.Name, eff.Demands, eff.Size, eff.Networks, req.ScenarioSeed)
		seed := req.ScenarioSeed
		return key, func() (*instance.Problem, error) { return s.Generate(eff, seed) }, nil
	default:
		return "", nil, fmt.Errorf("%w: a %s or a scenario is required", ErrBadRequest, field)
	}
}

// hashProblem returns the canonical problem hash: SHA-256 over the
// deterministic JSON wire form (trees as edge lists, demands in order),
// the bytes json.Marshal writes for the problem. EncodeWire streams them
// into the hasher through a fixed pooled buffer, so hashing never holds
// a copy of the wire form.
func hashProblem(p *instance.Problem) (string, error) {
	s := hashPool.Get().(*hashScratch)
	defer hashPool.Put(s)
	s.h.Reset()
	w := wire.NewWriter(s.buf[:], s.h)
	if err := p.EncodeWire(w); err != nil {
		return "", err
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(s.h.Sum(sum[:0])), nil
}

// hashScratch is one hash computation's state, recycled by hashPool.
type hashScratch struct {
	h   hash.Hash
	buf [4096]byte
}

var hashPool = sync.Pool{New: func() any { return &hashScratch{h: sha256.New()} }}

// resultKey keys the memoization cache on everything that can change a
// response: the problem hash, the algorithm, and the options normalized
// by the algorithm's core.Algorithm.KeyOptions, which applies the
// defaults and zeroes every field the algorithm does not read — so
// semantically identical requests share one entry. The algorithm name is
// a load-bearing component, not an option: KeyOptions collapses the
// options of several algorithms to the same normal form, so without algo
// in the key, "greedy" and "sequential" on one problem would collide on
// identical option strings. TestResultMemoKeyIncludesAlgorithm pins this.
func resultKey(problemHash string, algo core.Algorithm, opts core.Options) string {
	opts = algo.KeyOptions(opts)
	return fmt.Sprintf("%s|algo=%s|eps=%g|seed=%d|fixed=%t|nodes=%d",
		problemHash, algo.Name, opts.Epsilon, opts.Seed, opts.FixedRounds, opts.MaxNodes)
}

// ctxKey keys the request-scoped values the HTTP layer deposits for
// the engine: the request id (accepted or minted from X-Request-ID)
// and the endpoint class name.
type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyEndpoint
)

// WithRequestID returns a context carrying the request id the engine
// should record the work under. The HTTP layer calls this with the
// accepted-or-generated X-Request-ID; direct API callers may use it to
// correlate their calls in /debug/requests.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// RequestIDFrom extracts the request id, "" when absent.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

func withEndpoint(ctx context.Context, endpoint string) context.Context {
	return context.WithValue(ctx, ctxKeyEndpoint, endpoint)
}

func endpointFrom(ctx context.Context, fallback string) string {
	if ep, _ := ctx.Value(ctxKeyEndpoint).(string); ep != "" {
		return ep
	}
	return fallback
}

// beginReq opens a flight-recorder entry for the request on ctx,
// reusing the caller's latency timestamp so the hot path reads the
// clock once. Nil-safe end to end: with the recorder disabled it
// returns a nil handle and every downstream use is a no-op.
func (e *Engine) beginReq(ctx context.Context, fallbackEndpoint string, start time.Time) *obs.Req {
	if e.rec == nil {
		return nil
	}
	return e.rec.BeginAt(RequestIDFrom(ctx), endpointFrom(ctx, fallbackEndpoint), start)
}

// sloAccounting classifies an outcome for the SLO: client errors spend
// no error budget (accounted=false); cancellations are charged to the
// server — from the user's seat a deadline miss is an SLO miss.
func sloAccounting(err error) (accounted, failed bool) {
	if err == nil {
		return true, false
	}
	if errors.Is(err, ErrBadRequest) {
		return false, false
	}
	return true, true
}

// errMsg renders err for a recorder record ("" for nil).
func errMsg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Solve validates, dispatches and executes one request through the
// worker pool, consulting the result cache first and the compiled-model
// cache second. The returned Response is shared with the cache — treat
// as immutable.
func (e *Engine) Solve(ctx context.Context, req *Request) (*Response, error) {
	resp, _, err := e.solveMemo(ctx, req)
	return resp, err
}

// solveMemo is Solve that also returns the result key when the result
// cache answered the request, and "" otherwise: /solve keeps the bytes
// of such an answer for the next sight of the same body.
func (e *Engine) solveMemo(ctx context.Context, req *Request) (resp *Response, hitKey string, err error) {
	err = e.account(ctx, e.sloSolve, "solve", func(rq *obs.Req) error {
		var err error
		resp, hitKey, err = e.solve(ctx, rq, req)
		return err
	})
	return resp, hitKey, err
}

// account is the bookkeeping of one engine request around fn: the drain
// group, the SLO of the request's class (e.sloSolve or e.sloSession) and
// the recorder record fn fills, which records under endpoint unless the
// HTTP layer named one. Solve-class requests also count in the request
// and error counters, which describe /solve and /batch alone. Solve, a
// repeated /solve body, session event batches and session schedules all
// run through it, so they count alike.
func (e *Engine) account(ctx context.Context, slo *obs.SLO, endpoint string, fn func(rq *obs.Req) error) error {
	if err := e.enter(); err != nil {
		return err
	}
	defer e.wg.Done()
	counted := slo == e.sloSolve
	if counted {
		e.met.requests.Add(1)
	}
	begin := time.Now()
	rq := e.beginReq(ctx, endpoint, begin)
	err := fn(rq)
	durNs := time.Since(begin).Nanoseconds()
	if err != nil && counted {
		e.met.errors.Add(1)
	}
	if accounted, failed := sloAccounting(err); accounted {
		slo.Observe(durNs, failed)
	}
	rq.Finish(durNs, errMsg(err))
	return err
}

// withWorker runs fn holding a worker-pool slot. While it waits the
// request is in the queued phase, under a "queued" span; a context that
// expires first leaves a reject event and returns its error. /solve's
// flight leaders and both session resolves wait here.
func (e *Engine) withWorker(ctx context.Context, rq *obs.Req, fn func() error) error {
	rq.SetPhase(obs.PhaseQueued)
	tel := rq.Trace()
	qs := tel.Begin("queued")
	select {
	case e.sem <- struct{}{}:
		tel.End(qs)
	case <-ctx.Done():
		tel.End(qs)
		e.rec.Event("reject", rq.ID(), "context expired waiting for a worker slot")
		return ctx.Err()
	}
	defer func() { <-e.sem }()
	e.met.inFlight.Add(1)
	defer e.met.inFlight.Add(-1)
	return fn()
}

// solverErr classifies the error of a solver run, /solve's or a session
// event's: a cancelled context stays the caller's; a failed slackness
// certificate is a solver bug and an exhausted exact budget a limit the
// server imposed, both server-side; anything else — a violated
// precondition (wrong problem kind, non-unit heights, non-narrow
// instances) or a bad session event — is the client's fault.
func solverErr(err error) error {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return err
	case errors.Is(err, core.ErrCertificate), errors.Is(err, core.ErrExactTooLarge):
		return fmt.Errorf("service: %w", err)
	}
	return fmt.Errorf("%w: %v", ErrBadRequest, err)
}

// noteAlgo counts a request under its (registered) algorithm.
func (e *Engine) noteAlgo(rq *obs.Req, algo string) {
	e.met.countAlgo(algo)
	rq.SetAlgo(algo)
}

// noteResultHit counts a request the result cache answered.
func (e *Engine) noteResultHit(rq *obs.Req) {
	e.met.resultHits.Add(1)
	rq.SetOutcome(outcomeResultHit)
}

// Request outcomes recorded for /debug and the request log.
const (
	outcomeResultHit = "result_hit"
	outcomeCoalesced = "coalesced"
	outcomeSolved    = "solved"
	outcomeError     = "error"
)

func (e *Engine) solve(ctx context.Context, rq *obs.Req, req *Request) (resp *Response, hitKey string, err error) {
	// Core signals violated preconditions it cannot express as errors by
	// panicking (e.g. NewSchedule on an out-of-range epsilon). A panic
	// must fail the one request, never the process — /batch executes
	// solves on bare goroutines where net/http's per-request recover
	// cannot help.
	defer func() {
		if r := recover(); r != nil {
			resp, hitKey, err = nil, "", fmt.Errorf("service: panic during %q solve: %v", req.Algo, r)
		}
	}()

	rq.SetPhase(obs.PhaseValidate)
	algo, ok := core.Lookup(req.Algo)
	if !ok {
		return nil, "", fmt.Errorf("%w: unknown algorithm %q (known: %v)", ErrBadRequest, req.Algo, Algorithms())
	}
	e.noteAlgo(rq, req.Algo)
	if req.Epsilon < 0 || req.Epsilon >= 1 {
		return nil, "", fmt.Errorf("%w: epsilon %g outside [0,1) (0 = default 0.25)", ErrBadRequest, req.Epsilon)
	}

	hash, materialize, err := e.problemSource(req, "problem")
	if err != nil {
		return nil, "", err
	}
	if req.Problem != nil {
		if hash, err = hashProblem(req.Problem); err != nil {
			return nil, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	opts := core.Options{Epsilon: req.Epsilon, Seed: req.Seed, FixedRounds: req.FixedRounds, MaxNodes: req.MaxNodes}
	if opts.MaxNodes <= 0 || opts.MaxNodes > e.cfg.MaxExactNodes {
		opts.MaxNodes = e.cfg.MaxExactNodes
	}

	rq.SetPhase(obs.PhaseCacheCheck)
	key := resultKey(hash, algo, opts)
	if resp, ok := e.results.get(key); ok {
		e.noteResultHit(rq)
		return resp, key, nil
	}
	e.met.resultMisses.Add(1)

	// Singleflight: of N concurrent identical requests, one leader
	// executes and N-1 followers wait for its response — byte-identical
	// by construction, since all N hand out one shared *Response (the
	// same sharing the result cache already implies). Errors are shared
	// with the concurrent followers but never cached: the next arrival
	// re-executes. The leader registers its request id as the flight
	// owner so followers can link their records to the trace that did
	// the work.
	rq.SetPhase(obs.PhaseFlightWait)
	resp, coalesced, leader, err := e.solveFlight.do(ctx, key, rq.ID(), func() (*Response, error) {
		return e.execute(ctx, rq, req, algo, hash, key, materialize, opts)
	})
	if coalesced {
		e.met.solvesCoalesced.Add(1)
		rq.SetOutcome(outcomeCoalesced)
		rq.Link(leader)
		e.rec.Event("coalesce", rq.ID(), "leader="+leader)
	} else if err == nil {
		rq.SetOutcome(outcomeSolved)
	} else {
		rq.SetOutcome(outcomeError)
	}
	return resp, "", err
}

// execute is the solve-flight leader body: worker slot, compiled model,
// solver run, feasibility gate, memoization. Followers of the flight
// never enter here — a coalesced request holds no worker slot and
// touches no cache. rq is the leader's own recorder handle: its span
// tree (when sampling is on) receives the queue/compile/solve/verify
// timeline, with the solver's phase-level spans nested under "solve"
// via core.Options.Telemetry.
func (e *Engine) execute(ctx context.Context, rq *obs.Req, req *Request, algo core.Algorithm, hash, key string, materialize func() (*instance.Problem, error), opts core.Options) (resp *Response, err error) {
	// The solve's panic guard must sit inside the flight: a panic that
	// escaped fn would strand the flight's followers, and the leader's
	// followers deserve the same converted error the leader returns.
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("service: panic during %q solve: %v", req.Algo, r)
		}
	}()
	if gate := e.solveGate; gate != nil {
		gate(key)
	}
	// Lost-race recheck: between this request's cache miss and flight
	// entry, a previous leader may have completed and memoized.
	if resp, ok := e.results.get(key); ok {
		return resp, nil
	}

	tel := rq.Trace() // nil unless sampling is enabled — every use below is nil-safe
	err = e.withWorker(ctx, rq, func() error {
		rq.SetPhase(obs.PhaseCompile)
		cs := tel.Begin("compiled_model") // cache hit, coalesced wait, or a real compile
		c, err := e.compiledFor(ctx, rq, hash, materialize)
		tel.End(cs)
		if err != nil {
			return err
		}

		rq.SetPhase(obs.PhaseSolve)
		opts.Telemetry = tel // the solver's phase spans nest under this request's tree
		ss := tel.Begin("solve")
		begin := time.Now()
		res, net, err := algo.Run(c, opts)
		solveNs := time.Since(begin).Nanoseconds()
		tel.End(ss)
		e.met.solveNanos.Add(solveNs)
		e.met.solveLatency.Observe(solveNs)
		if err != nil {
			return solverErr(err)
		}
		// Safety gate: never serve an infeasible selection. A failure here
		// is a solver bug, not a client error.
		rq.SetPhase(obs.PhaseVerify)
		vs := tel.Begin("verify")
		err = verify.Solution(c.Problem(), res.Selected)
		tel.End(vs)
		if err != nil {
			return fmt.Errorf("service: solver emitted infeasible solution: %w", err)
		}
		if err := checkFinite(res); err != nil {
			return err
		}
		rq.SetPhase(obs.PhaseRespond)

		resp = buildResponse(req.Scenario, len(c.Problem().Demands), res, net)
		e.results.add(key, resp)
		return nil
	})
	return resp, err
}

// checkFinite refuses a result JSON cannot carry. The problem's total
// profit is finite (instance.Validate), but a dual can still overflow,
// say under a huge profit over a tiny capacity; that is the client's
// input, and the error is returned before anything is memoized.
func checkFinite(res *core.Result) error {
	for _, v := range [...]struct {
		name string
		x    float64
	}{
		{"profit", res.Profit},
		{"dual upper bound", res.DualUB},
		{"certified ratio", res.CertifiedRatio},
		{"bound", res.Bound},
		{"lambda", res.Lambda},
	} {
		if math.IsInf(v.x, 0) || math.IsNaN(v.x) {
			return fmt.Errorf("%w: the solution's %s is %g, which JSON cannot carry", ErrBadRequest, v.name, v.x)
		}
	}
	return nil
}

// buildResponse assembles the complete, final Response for a solved
// request of demands demands: /solve's, whose scenario it names, or a
// session schedule's, which names none and has no network cost. It is
// the single point where responses are constructed: the pointer it
// returns enters the memoization cache and is shared by every future
// equal request, so no field may be written after it returns (the
// respfreeze analyzer enforces this).
func buildResponse(scenario string, demands int, res *core.Result, net *dist.Stats) *Response {
	resp := &Response{
		Algorithm:      res.Name,
		Scenario:       scenario,
		Profit:         res.Profit,
		DualUpperBound: res.DualUB,
		CertifiedRatio: res.CertifiedRatio,
		Bound:          res.Bound,
		Lambda:         res.Lambda,
		Demands:        demands,
		Scheduled:      len(res.Selected),
		Selected:       res.Selected,
	}
	if resp.Selected == nil {
		resp.Selected = []instance.Inst{}
	}
	if net != nil {
		resp.Rounds = net.Rounds
		resp.Messages = net.Messages
		resp.Aggregations = net.Aggregations
		resp.PayloadEntries = net.Entries
	}
	return resp
}

// compiledFor returns the compiled model for the hashed problem,
// consulting the compiled cache and coalescing concurrent compilations
// of the same problem: requests that differ in algorithm or options
// share one model, so their first concurrent wave costs one
// compilation. One compilation serves every algorithm and every
// (epsilon, seed) on the same problem. Callers hold a worker slot;
// compile followers keep theirs while waiting (they run a solver the
// moment the model lands), so the flight adds no slot pressure beyond
// the requests themselves.
func (e *Engine) compiledFor(ctx context.Context, rq *obs.Req, hash string, materialize func() (*instance.Problem, error)) (*core.Compiled, error) {
	if c, ok := e.compiled.get(hash); ok {
		e.met.compiledHits.Add(1)
		return c, nil
	}
	e.met.compiledMisses.Add(1)
	c, coalesced, leader, err := e.compileFlight.do(ctx, hash, rq.ID(), func() (*core.Compiled, error) {
		if gate := e.compileGate; gate != nil {
			gate(hash)
		}
		if c, ok := e.compiled.get(hash); ok { // lost-race recheck
			return c, nil
		}
		p, err := materialize()
		if err != nil {
			return nil, err
		}
		c, err := core.Compile(p, 0)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		c.SetCompileWorkers(e.cfg.CompileWorkers)
		e.compiled.add(hash, c)
		return c, nil
	})
	if coalesced {
		e.met.compilesCoalesced.Add(1)
		e.rec.Event("coalesce_compile", rq.ID(), "leader="+leader)
	}
	return c, err
}
