package obs

import "time"

// SpanID indexes a span inside one Trace. The nil-trace sentinel is
// NoSpan; every Trace method treats it (and a nil receiver) as a
// no-op, so instrumented code never branches on "is tracing on"
// beyond the nil-check the method itself performs.
type SpanID int32

// NoSpan is the id returned by Begin on a nil Trace.
const NoSpan SpanID = -1

// SpanCounter is one named count attached to a span (raises, steps,
// MIS phases, messages...).
type SpanCounter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Span is one timed phase of a solve. Start offsets are relative to
// the trace origin so a timeline renders without wall-clock epochs.
type Span struct {
	Name     string        `json:"name"`
	Parent   SpanID        `json:"parent"` // NoSpan for roots
	StartNs  int64         `json:"start_ns"`
	DurNs    int64         `json:"dur_ns"`
	Counters []SpanCounter `json:"counters,omitempty"`
}

// RoundSample is the per-superstep telemetry of a BSP run: what kind
// of collective the round was, how much crossed the wire, and how long
// the superstep took (compute + synchronization, measured from the
// previous round's completion).
type RoundSample struct {
	Kind     string `json:"kind"` // "exchange" or "aggregate"
	Messages int64  `json:"messages"`
	Entries  int64  `json:"entries"`
	StepNs   int64  `json:"step_ns"`
}

// RoundLog collects RoundSamples. The dist runtimes append to one when
// observed; a nil *RoundLog costs the engines a single pointer check
// per round.
type RoundLog struct {
	Samples []RoundSample
}

// Add appends one sample. Nil-safe.
func (l *RoundLog) Add(s RoundSample) {
	if l == nil {
		return
	}
	l.Samples = append(l.Samples, s)
}

// Trace records a tree of timed spans for one solve. It is not safe
// for concurrent use: a trace belongs to exactly one solve call on one
// goroutine (concurrent solves each get their own Trace).
//
// The zero-overhead contract: all methods are nil-safe, and on a nil
// receiver they return immediately without reading the clock or
// allocating. Instrumented code therefore calls Begin/End/Add
// unconditionally.
type Trace struct {
	origin time.Time
	spans  []Span
	open   []SpanID // stack of open spans, for parenting
	rounds []RoundSample
}

// NewTrace starts an empty trace anchored at the current time.
func NewTrace() *Trace {
	return &Trace{origin: time.Now()}
}

// Begin opens a span named name, parented to the innermost open span.
func (t *Trace) Begin(name string) SpanID {
	if t == nil {
		return NoSpan
	}
	parent := NoSpan
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{
		Name:    name,
		Parent:  parent,
		StartNs: time.Since(t.origin).Nanoseconds(),
		DurNs:   -1,
	})
	t.open = append(t.open, id)
	return id
}

// End closes the span, recording its duration. Any spans opened after
// id and still open are closed with it (leniency keeps error paths
// from corrupting the stack).
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 || int(id) >= len(t.spans) {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	for n := len(t.open); n > 0; n = len(t.open) {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		if sp := &t.spans[top]; sp.DurNs < 0 {
			sp.DurNs = now - sp.StartNs
		}
		if top == id {
			return
		}
	}
}

// spanCounterCap is the capacity of a span's counter list, allocated on
// its first Add: the most counters an instrumented span carries is
// compile's five, so a span's counters cost one allocation, not one per
// doubling.
const spanCounterCap = 5

// Add accumulates a named counter on the span (summing on repeat keys).
func (t *Trace) Add(id SpanID, name string, v int64) {
	if t == nil || id < 0 || int(id) >= len(t.spans) {
		return
	}
	sp := &t.spans[id]
	for i := range sp.Counters {
		if sp.Counters[i].Name == name {
			sp.Counters[i].Value += v
			return
		}
	}
	if sp.Counters == nil {
		sp.Counters = make([]SpanCounter, 0, spanCounterCap)
	}
	sp.Counters = append(sp.Counters, SpanCounter{Name: name, Value: v})
}

// AddRounds attaches per-superstep samples from a BSP run.
func (t *Trace) AddRounds(samples []RoundSample) {
	if t == nil || len(samples) == 0 {
		return
	}
	t.rounds = append(t.rounds, samples...)
}

// RootNs sums the durations of top-level spans — the portion of wall
// time the trace accounts for.
func (t *Trace) RootNs() int64 {
	if t == nil {
		return 0
	}
	var sum int64
	for i := range t.spans {
		if t.spans[i].Parent == NoSpan && t.spans[i].DurNs > 0 {
			sum += t.spans[i].DurNs
		}
	}
	return sum
}

// Spans returns the recorded spans (shared slice; do not mutate).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Rounds returns the attached BSP round samples.
func (t *Trace) Rounds() []RoundSample {
	if t == nil {
		return nil
	}
	return t.rounds
}

// PhaseNs returns the summed duration of all spans named name.
func (t *Trace) PhaseNs(name string) int64 {
	if t == nil {
		return 0
	}
	var sum int64
	for i := range t.spans {
		if t.spans[i].Name == name && t.spans[i].DurNs > 0 {
			sum += t.spans[i].DurNs
		}
	}
	return sum
}

// CounterTotal sums counter name across all spans named span (any span
// when span is empty).
func (t *Trace) CounterTotal(span, name string) int64 {
	if t == nil {
		return 0
	}
	var sum int64
	for i := range t.spans {
		if span != "" && t.spans[i].Name != span {
			continue
		}
		for _, c := range t.spans[i].Counters {
			if c.Name == name {
				sum += c.Value
			}
		}
	}
	return sum
}

// RoundsSummary aggregates the wall-clock axis of the attached BSP
// rounds: per-kind totals and the worst single superstep. The time
// axis of individual rounds is the prefix sum of their step_ns fields
// (each StepNs is measured from the previous collective's completion).
type RoundsSummary struct {
	Rounds      int   `json:"rounds"`
	Exchanges   int   `json:"exchanges"`
	Aggregates  int   `json:"aggregates"`
	ExchangeNs  int64 `json:"exchange_ns"`
	AggregateNs int64 `json:"aggregate_ns"`
	TotalStepNs int64 `json:"total_step_ns"`
	MaxStepNs   int64 `json:"max_step_ns"`
}

// SummarizeRounds reduces samples to their wall-clock summary.
func SummarizeRounds(samples []RoundSample) RoundsSummary {
	var s RoundsSummary
	for i := range samples {
		r := &samples[i]
		s.Rounds++
		s.TotalStepNs += r.StepNs
		if r.StepNs > s.MaxStepNs {
			s.MaxStepNs = r.StepNs
		}
		switch r.Kind {
		case "exchange":
			s.Exchanges++
			s.ExchangeNs += r.StepNs
		case "aggregate":
			s.Aggregates++
			s.AggregateNs += r.StepNs
		}
	}
	return s
}

// TraceExport is the JSON shape written by schedtool solve -trace-out.
type TraceExport struct {
	TotalNs int64         `json:"total_ns"` // origin → Export call
	Spans   []Span        `json:"spans"`
	Rounds  []RoundSample `json:"rounds,omitempty"`
	// RoundsSummary gives distributed solves a wall-clock round axis at
	// a glance; nil when the trace attached no BSP rounds.
	RoundsSummary *RoundsSummary `json:"rounds_summary,omitempty"`
}

// Export freezes the trace for serialization.
func (t *Trace) Export() TraceExport {
	if t == nil {
		return TraceExport{}
	}
	out := TraceExport{
		TotalNs: time.Since(t.origin).Nanoseconds(),
		Spans:   t.spans,
		Rounds:  t.rounds,
	}
	if len(t.rounds) > 0 {
		s := SummarizeRounds(t.rounds)
		out.RoundsSummary = &s
	}
	return out
}
