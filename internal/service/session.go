package service

// Dynamic sessions over HTTP: the serving face of internal/online. A
// session binds a network and an algorithm; clients stream add/remove
// events and fetch schedules recomputed by delta recompilation. The
// engine keeps sessions in an LRU with an idle timeout — every eviction
// is observable through the session metrics — and serializes each
// session's events through its own mutex while different sessions solve
// concurrently through the shared worker pool.

import (
	"container/list"
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"treesched/internal/instance"
	"treesched/internal/obs"
	"treesched/internal/online"
	"treesched/internal/scenario"
	"treesched/internal/verify"
)

// ErrSessionNotFound tags lookups of closed, evicted or never-opened
// sessions; the HTTP layer maps it to 404.
var ErrSessionNotFound = fmt.Errorf("%w: session not found", ErrBadRequest)

// SessionRequest opens a session. Exactly one of Network or Scenario
// must be set; demands already present (inline or generated by the
// scenario) become the initial job set with ids 0..m-1.
type SessionRequest struct {
	// Algo names the per-resolve algorithm (see online.Algorithms).
	Algo string `json:"algo"`

	Network *instance.Problem `json:"network,omitempty"`

	Scenario       string          `json:"scenario,omitempty"`
	ScenarioSeed   int64           `json:"scenario_seed,omitempty"`
	ScenarioParams scenario.Params `json:"scenario_params,omitzero"`

	Epsilon float64 `json:"epsilon,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
}

// SessionInfo is the state echo returned by session mutations.
type SessionInfo struct {
	SessionID string       `json:"session_id"`
	Stats     online.Stats `json:"stats"`
}

// SessionEventsResult reports an event batch application.
type SessionEventsResult struct {
	SessionID string       `json:"session_id"`
	Applied   int          `json:"applied"`
	Stats     online.Stats `json:"stats"`
}

// SessionSchedule is the schedule endpoint payload: the deterministic
// solver response plus the session face (job ids, version, whether the
// delta path served the recompile).
type SessionSchedule struct {
	SessionID   string   `json:"session_id"`
	Version     uint64   `json:"version"`
	Jobs        int      `json:"jobs"`
	Incremental bool     `json:"incremental"`
	JobIDs      []int64  `json:"job_ids"`
	Response    Response `json:"response"`
}

// sessionEntry pairs a session with its LRU bookkeeping. lastUsed is
// guarded by the manager mutex.
type sessionEntry struct {
	id       string
	s        *online.Session
	el       *list.Element
	lastUsed time.Time
}

// sessionManager owns the id→session table with LRU capacity eviction
// and idle-timeout sweeps (run on every operation, so an abandoned
// session disappears the next time anything touches the manager).
type sessionManager struct {
	mu   sync.Mutex
	cap  int
	idle time.Duration
	seq  int64
	ord  *list.List // front = most recently used; values are *sessionEntry
	byID map[string]*sessionEntry
}

func newSessionManager(capacity int, idle time.Duration) *sessionManager {
	return &sessionManager{
		cap:  capacity,
		idle: idle,
		ord:  list.New(),
		byID: make(map[string]*sessionEntry),
	}
}

func (m *sessionManager) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ord.Len()
}

// sessionEviction names one swept session and why it went: "idle"
// (untouched past the timeout) or "lru" (capacity pressure). The engine
// turns these into flight-recorder events.
type sessionEviction struct {
	id     string
	reason string
}

// sweepLocked evicts idle sessions and trims to capacity, returning the
// evictions in the order they happened (nil when none).
func (m *sessionManager) sweepLocked(now time.Time) []sessionEviction {
	var evicted []sessionEviction
	for el := m.ord.Back(); el != nil; {
		e := el.Value.(*sessionEntry)
		prev := el.Prev()
		if now.Sub(e.lastUsed) > m.idle {
			m.ord.Remove(el)
			delete(m.byID, e.id)
			evicted = append(evicted, sessionEviction{id: e.id, reason: "idle"})
		}
		el = prev
	}
	for m.ord.Len() > m.cap {
		el := m.ord.Back()
		e := el.Value.(*sessionEntry)
		m.ord.Remove(el)
		delete(m.byID, e.id)
		evicted = append(evicted, sessionEviction{id: e.id, reason: "lru"})
	}
	return evicted
}

// add registers a session and returns its id plus evictions performed.
func (m *sessionManager) add(s *online.Session) (string, []sessionEviction) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	m.seq++
	id := "s-" + strconv.FormatInt(m.seq, 10)
	e := &sessionEntry{id: id, s: s, lastUsed: now}
	e.el = m.ord.PushFront(e)
	m.byID[id] = e
	return id, m.sweepLocked(now)
}

// get returns the session, refreshing its recency, plus evictions
// performed by the piggybacked sweep.
func (m *sessionManager) get(id string) (*online.Session, []sessionEviction, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	evicted := m.sweepLocked(now)
	e, ok := m.byID[id]
	if !ok {
		return nil, evicted, false
	}
	e.lastUsed = now
	m.ord.MoveToFront(e.el)
	return e.s, evicted, true
}

// remove closes a session explicitly.
func (m *sessionManager) remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.byID[id]
	if !ok {
		return false
	}
	m.ord.Remove(e.el)
	delete(m.byID, id)
	return true
}

// OpenSession validates the request, materializes the network and
// registers a new session. The network is checked as /solve checks a
// problem, before anything is generated.
func (e *Engine) OpenSession(req *SessionRequest) (*SessionInfo, error) {
	if err := e.enter(); err != nil {
		return nil, err
	}
	defer e.wg.Done()

	_, materialize, err := e.problemSource(&Request{Problem: req.Network, Scenario: req.Scenario,
		ScenarioSeed: req.ScenarioSeed, ScenarioParams: req.ScenarioParams}, "network")
	if err != nil {
		return nil, err
	}
	network, err := materialize()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	s, err := online.NewSession(network, online.Config{
		Algo:    req.Algo,
		Epsilon: req.Epsilon,
		Seed:    req.Seed,
		MaxJobs: e.cfg.MaxDemands,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	id, evicted := e.sessions.add(s)
	e.met.sessionsOpened.Add(1)
	e.noteSessionEvictions(evicted)
	e.rec.Event("session_open", "", id)
	return &SessionInfo{SessionID: id, Stats: s.Stats()}, nil
}

// noteSessionEvictions charges sweep evictions to the metrics and logs
// each as a recorder event ("session_evict_idle" / "session_evict_lru"
// with the evicted session id as detail).
func (e *Engine) noteSessionEvictions(evs []sessionEviction) {
	e.met.sessionsEvicted.Add(int64(len(evs)))
	for _, ev := range evs {
		e.rec.Event("session_evict_"+ev.reason, "", ev.id)
	}
}

// lookupSession resolves an id, charging any piggybacked evictions to
// the metrics.
func (e *Engine) lookupSession(id string) (*online.Session, error) {
	s, evicted, ok := e.sessions.get(id)
	e.noteSessionEvictions(evicted)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	return s, nil
}

// SessionEvents applies a batch of events in order, stopping at the
// first failure (the events before it remain applied — sessions are
// event-sourced, not transactional). Resolve events execute through the
// worker pool.
func (e *Engine) SessionEvents(ctx context.Context, id string, events []online.Event) (*SessionEventsResult, error) {
	var res *SessionEventsResult
	err := e.account(ctx, e.sloSession, "session_events", func(rq *obs.Req) error {
		var err error
		res, err = e.sessionEvents(ctx, rq, id, events)
		return err
	})
	return res, err
}

func (e *Engine) sessionEvents(ctx context.Context, rq *obs.Req, id string, events []online.Event) (*SessionEventsResult, error) {
	rq.SetPhase(obs.PhaseSession)
	s, err := e.lookupSession(id)
	if err != nil {
		return nil, err
	}
	for i := range events {
		if events[i].Op == online.OpResolve {
			_, err = e.resolve(ctx, rq, id, s, func() (*online.Schedule, error) { return s.Apply(events[i]) })
		} else if _, err = s.Apply(events[i]); err != nil {
			err = solverErr(err)
		}
		if err != nil { // the i events before this one stay applied
			return nil, fmt.Errorf("%w (event %d applied-before=%d)", err, i, i)
		}
		e.met.sessionEvents.Add(1)
	}
	return &SessionEventsResult{SessionID: id, Applied: len(events), Stats: s.Stats()}, nil
}

// SessionSchedule resolves the session's current job set (committing any
// staged events) and returns the schedule.
func (e *Engine) SessionSchedule(ctx context.Context, id string) (*SessionSchedule, error) {
	var out *SessionSchedule
	err := e.account(ctx, e.sloSession, "session_schedule", func(rq *obs.Req) error {
		var err error
		out, err = e.sessionSchedule(ctx, rq, id)
		return err
	})
	return out, err
}

func (e *Engine) sessionSchedule(ctx context.Context, rq *obs.Req, id string) (*SessionSchedule, error) {
	rq.SetPhase(obs.PhaseSession)
	s, err := e.lookupSession(id)
	if err != nil {
		return nil, err
	}
	sched, err := e.resolve(ctx, rq, id, s, s.Resolve)
	if err != nil {
		return nil, err
	}
	if err := checkFinite(sched.Result); err != nil {
		return nil, err
	}
	out := &SessionSchedule{
		SessionID:   id,
		Version:     sched.Version,
		Jobs:        sched.Jobs,
		Incremental: sched.Incremental,
		JobIDs:      sched.JobIDs,
		Response:    *buildResponse("", sched.Jobs, sched.Result, nil),
	}
	if out.JobIDs == nil {
		out.JobIDs = []int64{}
	}
	return out, nil
}

// resolve is the one resolve step of a session, behind a resolve event
// and a schedule read alike. run resolves holding a worker slot — solves
// are the expensive part, so the pool bounds them — timed into the
// session metrics. The resolve is then counted as cached (no recompile,
// detected from the session's own counter; slight skew is possible under
// concurrent resolves, acceptable for a counter), a delta recompile or a
// full one, and logged as a recorder event. A newly produced generation
// passes the feasibility gate /solve applies; cached reads were gated
// when their schedule was produced. The schedule carries the problem it
// was computed for, so a concurrent newer generation cannot swap the
// demand set under the verification.
func (e *Engine) resolve(ctx context.Context, rq *obs.Req, id string, s *online.Session, run func() (*online.Schedule, error)) (*online.Schedule, error) {
	cachedBefore := s.Stats().CachedResolves
	var sched *online.Schedule
	err := e.withWorker(ctx, rq, func() error {
		rq.SetPhase(obs.PhaseSession)
		var err error
		begin := time.Now()
		sched, err = run()
		resolveNs := time.Since(begin).Nanoseconds()
		e.met.sessionSolveNanos.Add(resolveNs)
		e.met.sessionSolveLatency.Observe(resolveNs)
		return err
	})
	if err != nil {
		return nil, solverErr(err)
	}
	e.met.sessionResolves.Add(1)
	kind := "full"
	switch {
	case s.Stats().CachedResolves > cachedBefore:
		e.met.sessionCached.Add(1)
		kind = "cached"
	case sched.Incremental:
		e.met.sessionIncremental.Add(1)
		kind = "delta"
	default:
		e.met.sessionFullCompiles.Add(1)
	}
	e.rec.Event("session_resolve", rq.ID(), "session="+id+" kind="+kind)
	if kind != "cached" {
		if err := verify.Solution(sched.Problem, sched.Result.Selected); err != nil {
			return nil, fmt.Errorf("service: session solver emitted infeasible solution: %w", err)
		}
	}
	return sched, nil
}

// CloseSession removes a session explicitly.
func (e *Engine) CloseSession(id string) error {
	if err := e.enter(); err != nil {
		return err
	}
	defer e.wg.Done()
	if !e.sessions.remove(id) {
		return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	e.met.sessionsClosed.Add(1)
	e.rec.Event("session_close", "", id)
	return nil
}
