// Package trace records and replays dynamic-session workloads: a trace
// is a network header plus an ordered stream of arrival/departure/resolve
// events, generated deterministically from the scenario presets (and so
// from internal/gen configs) and serialized as NDJSON — one header line,
// one line per event. Equal (config, seed) pairs produce identical
// traces, and replaying a trace is deterministic end to end, so traces
// double as regression fixtures for the online subsystem and as the
// input format of `schedtool replay` and `schedbench -online`.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"treesched/internal/instance"
	"treesched/internal/online"
	"treesched/internal/scenario"
)

// Header is the first NDJSON line: everything needed to open the session
// the events replay into.
type Header struct {
	// Name labels the trace (scenario name for generated traces).
	Name string `json:"name,omitempty"`
	// Algo is the algorithm every resolve runs (see online.Algorithms).
	Algo string `json:"algo"`
	// Seed and Epsilon configure the solver (not the generator). Seed is
	// int64 like every seed the generators and Config take: a negative
	// seed must survive the NDJSON round trip as written, not wrap
	// through uint64 into an 18-million-trillion literal that a re-read
	// Config no longer matches. The one unsigned consumer —
	// online.Config's Luby-priority seed — converts at that boundary
	// (see Replay), not here.
	Seed    int64   `json:"seed,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	// Network is the fixed network the session runs against; its demand
	// list must be empty (jobs arrive as events).
	Network *instance.Problem `json:"network"`
}

// Trace is one recorded workload.
type Trace struct {
	Header Header
	Events []online.Event
}

// Config parameterizes deterministic trace generation from a scenario
// preset. The preset's generator (an internal/gen config) supplies both
// the network and the job pool.
type Config struct {
	// Scenario names the preset (see internal/scenario).
	Scenario string
	// Params overrides the preset sizing (zero fields keep defaults).
	Params scenario.Params
	// Seed drives workload generation and churn choices.
	Seed int64
	// Algo overrides the preset's default algorithm.
	Algo string
	// InitialFrac is the fraction of the pool live at the first resolve
	// (default 0.5).
	InitialFrac float64
	// Churn is the fraction of live jobs swapped per batch (0 = default
	// 0.1; each batch swaps at least one job, so zero-churn traces are
	// unrepresentable and negative values error).
	Churn float64
	// Batches is the number of churn-and-resolve batches after the
	// initial resolve (default 20).
	Batches int
}

// FromScenario generates a trace from a preset: the preset's generated
// demands become the job pool, a fraction goes live up front, and each
// batch departs and admits Churn·live jobs before resolving.
func FromScenario(cfg Config) (*Trace, error) {
	s, ok := scenario.Get(cfg.Scenario)
	if !ok {
		return nil, fmt.Errorf("trace: unknown scenario %q", cfg.Scenario)
	}
	p, err := s.Generate(cfg.Params, cfg.Seed)
	if err != nil {
		return nil, err
	}
	algo := cfg.Algo
	if algo == "" {
		algo = s.DefaultAlgo
	}
	churn := cfg.Churn
	if churn == 0 {
		churn = 0.1
	}
	initial := cfg.InitialFrac
	if initial == 0 {
		initial = 0.5
	}
	batches := cfg.Batches
	if batches == 0 {
		batches = 20
	}
	return FromPool(cfg.Scenario, p, algo, cfg.Seed, initial, churn, batches)
}

// FromPool generates a trace from any generated problem (e.g. a raw
// internal/gen config's output): p's networks become the session
// network, p's demands the job pool. Deterministic in (p, seed). Unlike
// FromScenario, parameters are taken at face value — out-of-range values
// error instead of silently becoming defaults (a zero-churn control
// trace is unrepresentable: every batch swaps at least one job).
func FromPool(name string, p *instance.Problem, algo string, seed int64, initialFrac, churn float64, batches int) (*Trace, error) {
	if len(p.Demands) == 0 {
		return nil, fmt.Errorf("trace: pool problem has no demands")
	}
	if !(initialFrac > 0 && initialFrac <= 1) {
		return nil, fmt.Errorf("trace: initial fraction %g outside (0,1]", initialFrac)
	}
	if !(churn > 0 && churn <= 1) {
		return nil, fmt.Errorf("trace: churn %g outside (0,1] (each batch swaps at least one job; zero churn is unrepresentable)", churn)
	}
	if batches <= 0 {
		return nil, fmt.Errorf("trace: batches %d must be positive", batches)
	}
	network := *p
	network.Demands = nil
	tr := &Trace{Header: Header{Name: name, Algo: algo, Seed: seed, Network: &network}}

	rng := rand.New(rand.NewSource(seed))
	// queue holds the payloads not currently live: the tail of the pool
	// first, then recycled departures — so arrivals never run dry.
	var queue []instance.Demand
	nextID := int64(1)
	var live []int64
	payload := map[int64]instance.Demand{}

	admit := func() {
		// Arrivals can run dry under extreme churn (removals stop at one
		// live job while admissions ask for k); they resume as later
		// departures refill the queue.
		if len(queue) == 0 {
			return
		}
		d := queue[0]
		queue = queue[1:]
		id := nextID
		nextID++
		payload[id] = d
		live = append(live, id)
		tr.Events = append(tr.Events, online.Event{Op: online.OpAdd, Job: &online.Job{ID: id, Demand: d}})
	}

	initial := int(float64(len(p.Demands))*initialFrac + 0.5)
	if initial < 1 {
		initial = 1
	}
	queue = append(queue, p.Demands...)
	for i := 0; i < initial; i++ {
		admit()
	}
	tr.Events = append(tr.Events, online.Event{Op: online.OpResolve})

	for b := 0; b < batches; b++ {
		k := int(float64(len(live))*churn + 0.5)
		if k < 1 {
			k = 1
		}
		for i := 0; i < k && len(live) > 1; i++ {
			at := rng.Intn(len(live))
			id := live[at]
			live = append(live[:at], live[at+1:]...)
			queue = append(queue, payload[id])
			delete(payload, id)
			tr.Events = append(tr.Events, online.Event{Op: online.OpRemove, ID: id})
		}
		for i := 0; i < k; i++ {
			admit()
		}
		tr.Events = append(tr.Events, online.Event{Op: online.OpResolve})
	}
	return tr, nil
}

// Write serializes a trace as NDJSON: the header line, then one line per
// event. The encoding is deterministic, so Write∘Read∘Write is the
// identity on bytes.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(tr.Header); err != nil {
		return err
	}
	for i := range tr.Events {
		if err := enc.Encode(&tr.Events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a Write-format NDJSON stream: the header through
// encoding/json, each event line through online.DecodeEvent.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 32<<20)
	tr := &Trace{}
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty stream")
	}
	if err := json.Unmarshal(sc.Bytes(), &tr.Header); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if tr.Header.Network == nil {
		return nil, fmt.Errorf("trace: header has no network")
	}
	if len(tr.Header.Network.Demands) != 0 {
		return nil, fmt.Errorf("trace: header network carries %d demands; jobs must arrive as events", len(tr.Header.Network.Demands))
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		ev, _, err := online.DecodeEvent(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Outcome is the deterministic per-event replay record. LatencyNS is
// measured wall time and deliberately excluded from the JSON form:
// replaying the same trace twice must yield identical NDJSON.
type Outcome struct {
	Seq     int    `json:"seq"`
	Op      string `json:"op"`
	Version uint64 `json:"version"`
	Jobs    int    `json:"jobs"`
	// Resolve events only.
	Scheduled   int     `json:"scheduled,omitempty"`
	Profit      float64 `json:"profit,omitempty"`
	Incremental bool    `json:"incremental,omitempty"`

	LatencyNS int64 `json:"-"`
}

// Replay drives a trace through a fresh session and returns the
// per-event outcomes plus the session (for inspection). The outcome
// stream — everything but the latencies — is deterministic.
func Replay(tr *Trace) ([]Outcome, *online.Session, error) {
	s, err := online.NewSession(tr.Header.Network, online.Config{
		Algo:    tr.Header.Algo,
		Epsilon: tr.Header.Epsilon,
		// The Luby-priority seed is unsigned; this cast is the single
		// signed→unsigned boundary, deterministic in the header value.
		Seed: uint64(tr.Header.Seed),
	})
	if err != nil {
		return nil, nil, err
	}
	outcomes := make([]Outcome, 0, len(tr.Events))
	for i, ev := range tr.Events {
		begin := time.Now() //schedlint:statsonly per-event latency for Outcome.LatencyNS reporting only
		sched, err := s.Apply(ev)
		lat := time.Since(begin).Nanoseconds() //schedlint:statsonly Outcome.LatencyNS is reporting-only; schedules ignore it
		if err != nil {
			return nil, nil, fmt.Errorf("trace: event %d (%s): %w", i, ev.Op, err)
		}
		st := s.Stats()
		o := Outcome{Seq: i, Op: ev.Op, Version: st.Version, Jobs: st.Jobs, LatencyNS: lat}
		if sched != nil {
			o.Scheduled = len(sched.Result.Selected)
			o.Profit = sched.Result.Profit
			o.Incremental = sched.Incremental
		}
		outcomes = append(outcomes, o)
	}
	return outcomes, s, nil
}
