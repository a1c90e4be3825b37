// Package online implements dynamic scheduling sessions: a client opens
// a session against a fixed network (trees or a timeline, with their
// capacities), streams AddJob/RemoveJob events as demands arrive and
// depart, and asks for fresh schedules at Resolve points. Consecutive
// schedules are computed by delta recompilation (core.Compiled.WithJobs):
// only the compiled rows touched by the arrivals and departures are
// rebuilt, the tree decompositions and pooled solver scratch carry across
// generations, and past a churn threshold the session transparently falls
// back to a full recompile. Either way the schedule is byte-identical to
// compiling and solving the current job set from scratch — the
// equivalence suite in internal/core pins that property.
//
// A Session serializes its own event stream (one mutex); different
// sessions are independent. The serving layer (internal/service) exposes
// sessions over HTTP with LRU eviction; cmd/schedtool's replay
// subcommand drives recorded traces (internal/online/trace) through one.
package online

import (
	"fmt"
	"sync"

	"treesched/internal/core"
	"treesched/internal/instance"
)

// Op names an event operation.
const (
	OpAdd     = "add"
	OpRemove  = "remove"
	OpResolve = "resolve"
)

// Job is one client-visible unit of work: a stable client-chosen ID plus
// the demand payload (endpoints or window, profit, height, access set).
// The Demand's own ID field is ignored — sessions renumber demands
// internally as the job set churns.
type Job struct {
	ID     int64           `json:"id"`
	Demand instance.Demand `json:"demand"`
}

// Event is one element of a session's input stream.
type Event struct {
	Op  string `json:"op"`
	Job *Job   `json:"job,omitempty"` // add
	ID  int64  `json:"id,omitempty"`  // remove
}

// Config parameterizes a session.
type Config struct {
	// Algo names the algorithm run at every resolve; see Algorithms.
	Algo string
	// Epsilon is the ε of the (c+ε) guarantees (0 = solver default 0.25).
	Epsilon float64
	// Seed drives the deterministic Luby priorities.
	Seed uint64
	// ChurnThreshold overrides the WithJobs fallback fraction
	// (0 = core.DefaultChurnThreshold).
	ChurnThreshold float64
	// MaxJobs bounds the live job set (0 = 20000).
	MaxJobs int
}

// Stats is a session's observable state. Version counts applied
// mutating (add/remove) events; a schedule is current exactly when its
// Version equals it.
type Stats struct {
	Version             uint64 `json:"version"`
	Jobs                int    `json:"jobs"`
	Events              int64  `json:"events"`
	Resolves            int64  `json:"resolves"`
	IncrementalResolves int64  `json:"incremental_resolves"`
	FullResolves        int64  `json:"full_resolves"`
	CachedResolves      int64  `json:"cached_resolves"`
}

// Schedule is the outcome of one resolve.
type Schedule struct {
	// Result is the solver output on the current effective problem.
	Result *core.Result
	// Problem is the effective problem the schedule was computed for —
	// captured with the result so consumers (e.g. the serving layer's
	// feasibility gate) never race a later resolve for it. Immutable.
	Problem *instance.Problem
	// JobIDs maps Result.Selected positionally to the session's job ids.
	JobIDs []int64
	// Version is the mutation version the schedule reflects (equal to
	// Stats.Version when the schedule is current).
	Version uint64
	// Jobs is the live job count.
	Jobs int
	// Incremental reports whether the recompile behind this schedule took
	// the delta path (false for the first resolve, cache hits and
	// past-threshold fallbacks).
	Incremental bool
}

// Algorithms returns the session-dispatchable algorithm names, sorted:
// the core.Algorithms entries marked Session. The distributed drivers
// run on delta-compiled models like any other.
func Algorithms() []string {
	var out []string
	for _, a := range core.Algorithms() {
		if a.Session {
			out = append(out, a.Name)
		}
	}
	return out
}

// Session is one dynamic scheduling session. All methods are safe for
// concurrent use; events racing on one session are serialized in arrival
// order by the session mutex.
type Session struct {
	mu      sync.Mutex
	cfg     Config
	algo    core.Algorithm    // the registry entry cfg.Algo names
	network *instance.Problem // demand-less network template

	jobs  map[int64]instance.Demand // live + pending-added payloads
	order []int64                   // committed demand order: order[d] = job id of demand d

	pendingAdd    []int64
	pendingRemove map[int64]bool

	compiled *core.Compiled
	last     *Schedule

	stats Stats
}

// NewSession opens a session on network's networks (its trees or
// timeline and capacities). Demands already on network become the
// initial job set with ids 0..m-1; the usual pattern is an empty demand
// list with every job arriving as an event.
func NewSession(network *instance.Problem, cfg Config) (*Session, error) {
	algo, ok := core.Lookup(cfg.Algo)
	if !ok || !algo.Session {
		return nil, fmt.Errorf("online: unknown algorithm %q (known: %v)", cfg.Algo, Algorithms())
	}
	if cfg.Epsilon < 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("online: epsilon %g outside [0,1)", cfg.Epsilon)
	}
	// 0 means the core default; the comparison form also rejects NaN,
	// which would otherwise silently disable the delta path forever.
	if !(cfg.ChurnThreshold >= 0 && cfg.ChurnThreshold <= 1) {
		return nil, fmt.Errorf("online: churn threshold %g outside [0,1]", cfg.ChurnThreshold)
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 20000
	}
	if err := network.Validate(); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	if len(network.Demands) > cfg.MaxJobs {
		return nil, fmt.Errorf("online: %d initial jobs exceed the limit %d", len(network.Demands), cfg.MaxJobs)
	}
	tmpl := *network
	tmpl.Demands = nil
	s := &Session{
		cfg:           cfg,
		algo:          algo,
		network:       &tmpl,
		jobs:          make(map[int64]instance.Demand),
		pendingRemove: make(map[int64]bool),
	}
	for i, d := range network.Demands {
		s.jobs[int64(i)] = d
		s.pendingAdd = append(s.pendingAdd, int64(i))
	}
	return s, nil
}

// Config returns the session configuration.
func (s *Session) Config() Config { return s.cfg }

// Problem returns the effective problem of the last committed resolve
// (nil before the first). Treat as immutable — it is shared with the
// compiled model.
func (s *Session) Problem() *instance.Problem {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.compiled == nil {
		return nil
	}
	return s.compiled.Problem()
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Jobs = s.liveJobsLocked()
	return st
}

func (s *Session) liveJobsLocked() int {
	return len(s.order) + len(s.pendingAdd) - len(s.pendingRemove)
}

// Apply feeds one event into the session. Add and remove events only
// stage the mutation; a resolve event (or a Resolve call) commits every
// staged delta in one recompilation and returns the fresh schedule —
// resolve events return it, add/remove events return nil.
func (s *Session) Apply(ev Event) (*Schedule, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Op {
	case OpAdd:
		if ev.Job == nil {
			return nil, fmt.Errorf("online: add event without a job")
		}
		if _, dup := s.jobs[ev.Job.ID]; dup && !s.pendingRemove[ev.Job.ID] {
			return nil, fmt.Errorf("online: job %d already present", ev.Job.ID)
		}
		if s.pendingRemove[ev.Job.ID] {
			return nil, fmt.Errorf("online: job %d is pending removal; re-add it after a resolve", ev.Job.ID)
		}
		if s.liveJobsLocked() >= s.cfg.MaxJobs {
			return nil, fmt.Errorf("online: job limit %d reached", s.cfg.MaxJobs)
		}
		s.jobs[ev.Job.ID] = ev.Job.Demand
		s.pendingAdd = append(s.pendingAdd, ev.Job.ID)
	case OpRemove:
		if _, ok := s.jobs[ev.ID]; !ok {
			return nil, fmt.Errorf("online: job %d not present", ev.ID)
		}
		if s.pendingRemove[ev.ID] {
			return nil, fmt.Errorf("online: job %d already pending removal", ev.ID)
		}
		// A job that was added and removed between two resolves never
		// reaches the compiler at all.
		for k, id := range s.pendingAdd {
			if id == ev.ID {
				s.pendingAdd = append(s.pendingAdd[:k], s.pendingAdd[k+1:]...)
				delete(s.jobs, ev.ID)
				s.stats.Events++
				s.stats.Version++
				return nil, nil
			}
		}
		s.pendingRemove[ev.ID] = true
	case OpResolve:
		// Resolve events count as events but do not bump the version:
		// Version tracks mutations, so an up-to-date schedule always
		// satisfies schedule.Version == stats.Version (a cached resolve
		// would otherwise lag forever).
		s.stats.Events++
		return s.resolveLocked()
	default:
		return nil, fmt.Errorf("online: unknown event op %q", ev.Op)
	}
	s.stats.Events++
	s.stats.Version++
	return nil, nil
}

// Resolve commits the staged deltas and returns the schedule for the
// current job set. With no staged changes it returns the cached schedule
// of the previous resolve (sessions are deterministic: re-solving an
// unchanged set reproduces it bit for bit).
func (s *Session) Resolve() (*Schedule, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolveLocked()
}

func (s *Session) resolveLocked() (*Schedule, error) {
	if s.last != nil && len(s.pendingAdd) == 0 && len(s.pendingRemove) == 0 {
		s.stats.Resolves++
		s.stats.CachedResolves++
		return s.last, nil
	}

	// Stage the committed order the delta would produce; nothing is
	// mutated until the solve succeeds.
	var removedIdx []int
	newOrder := make([]int64, 0, len(s.order)+len(s.pendingAdd))
	for d, id := range s.order {
		if s.pendingRemove[id] {
			removedIdx = append(removedIdx, d)
			continue
		}
		newOrder = append(newOrder, id)
	}
	var added []instance.Demand
	for _, id := range s.pendingAdd {
		added = append(added, s.jobs[id])
		newOrder = append(newOrder, id)
	}

	var compiled *core.Compiled
	var err error
	if s.compiled == nil {
		p := *s.network
		p.Demands = make([]instance.Demand, len(newOrder))
		for d, id := range newOrder {
			dem := s.jobs[id]
			dem.ID = d
			p.Demands[d] = dem
		}
		compiled, err = core.Compile(&p, 0)
		if err == nil && s.cfg.ChurnThreshold != 0 {
			compiled.SetChurnThreshold(s.cfg.ChurnThreshold)
		}
	} else {
		compiled, err = s.compiled.WithJobs(added, removedIdx)
	}
	if err != nil {
		return nil, err
	}

	res, _, err := s.algo.Run(compiled, core.Options{Epsilon: s.cfg.Epsilon, Seed: s.cfg.Seed})
	if err != nil {
		return nil, err
	}

	// Only now that the solve succeeded does the session commit.
	s.compiled = compiled
	s.order = newOrder
	s.pendingAdd = nil
	for id := range s.pendingRemove {
		delete(s.jobs, id)
	}
	clear(s.pendingRemove)

	sched := &Schedule{
		Result:      res,
		Problem:     compiled.Problem(),
		Version:     s.stats.Version,
		Jobs:        len(s.order),
		Incremental: compiled.Incremental(),
	}
	for _, d := range res.Selected {
		sched.JobIDs = append(sched.JobIDs, s.order[d.Demand])
	}
	s.last = sched
	s.stats.Resolves++
	if compiled.Incremental() {
		s.stats.IncrementalResolves++
	} else {
		s.stats.FullResolves++
	}
	return sched, nil
}
