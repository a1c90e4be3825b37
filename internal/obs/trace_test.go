package obs

import (
	"encoding/json"
	"testing"
)

// TestNilTraceZeroAlloc pins the zero-overhead contract: a nil Trace
// must cost no allocations (and, by construction, no clock reads) on
// every method of the instrumentation surface.
func TestNilTraceZeroAlloc(t *testing.T) {
	var tr *Trace
	var rl *RoundLog
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.Begin("phase1")
		tr.Add(id, "raises", 3)
		tr.End(id)
		tr.AddRounds(nil)
		rl.Add(RoundSample{})
		_ = tr.RootNs()
		_ = tr.Spans()
		_ = tr.Rounds()
	})
	if allocs != 0 {
		t.Fatalf("nil trace allocated %v times per op, want 0", allocs)
	}
	if id := tr.Begin("x"); id != NoSpan {
		t.Fatalf("nil Begin = %d, want NoSpan", id)
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace()
	solve := tr.Begin("solve")
	p1 := tr.Begin("phase1")
	e1 := tr.Begin("epoch")
	tr.Add(e1, "raises", 4)
	tr.Add(e1, "raises", 2) // accumulates
	tr.End(e1)
	tr.End(p1)
	p2 := tr.Begin("phase2")
	tr.End(p2)
	tr.End(solve)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["solve"].Parent != NoSpan {
		t.Fatalf("solve parent = %d", byName["solve"].Parent)
	}
	if spans[byName["phase1"].Parent].Name != "solve" {
		t.Fatalf("phase1 not parented to solve")
	}
	if spans[byName["epoch"].Parent].Name != "phase1" {
		t.Fatalf("epoch not parented to phase1")
	}
	if got := tr.CounterTotal("epoch", "raises"); got != 6 {
		t.Fatalf("raises total = %d, want 6", got)
	}
	for _, s := range spans {
		if s.DurNs < 0 {
			t.Fatalf("span %s left open (dur %d)", s.Name, s.DurNs)
		}
	}
	if root := tr.RootNs(); root <= 0 || root != byName["solve"].DurNs {
		t.Fatalf("RootNs = %d, want solve dur %d", root, byName["solve"].DurNs)
	}
}

// End must tolerate out-of-order closes (error paths): closing an
// outer span closes any still-open children.
func TestTraceEndLenient(t *testing.T) {
	tr := NewTrace()
	outer := tr.Begin("outer")
	_ = tr.Begin("inner") // never explicitly ended
	tr.End(outer)
	for _, s := range tr.Spans() {
		if s.DurNs < 0 {
			t.Fatalf("span %s left open after outer End", s.Name)
		}
	}
	next := tr.Begin("next")
	if tr.Spans()[next].Parent != NoSpan {
		t.Fatalf("stack not drained: next parented to %d", tr.Spans()[next].Parent)
	}
	tr.End(next)
	tr.End(SpanID(99)) // out of range: no-op
}

func TestTraceExportJSON(t *testing.T) {
	tr := NewTrace()
	sp := tr.Begin("compile")
	tr.Add(sp, "decomp_ns", 120)
	tr.End(sp)
	tr.AddRounds([]RoundSample{{Kind: "exchange", Messages: 10, Entries: 20, StepNs: 100}})

	raw, err := json.Marshal(tr.Export())
	if err != nil {
		t.Fatal(err)
	}
	var back TraceExport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 1 || back.Spans[0].Name != "compile" {
		t.Fatalf("round-trip spans = %+v", back.Spans)
	}
	if len(back.Rounds) != 1 || back.Rounds[0].Messages != 10 {
		t.Fatalf("round-trip rounds = %+v", back.Rounds)
	}
	if back.TotalNs <= 0 {
		t.Fatalf("TotalNs = %d", back.TotalNs)
	}
	if got := tr.PhaseNs("compile"); got != back.Spans[0].DurNs {
		t.Fatalf("PhaseNs = %d, want %d", got, back.Spans[0].DurNs)
	}
}

// TestAddRoundsTakesOverFirstSlice: the first AddRounds keeps the
// caller's slice without a copy, and a later one appends after it.
func TestAddRoundsTakesOverFirstSlice(t *testing.T) {
	tr := NewTrace()
	first := []RoundSample{{Kind: "exchange", Messages: 3}, {Kind: "aggregate"}}
	tr.AddRounds(first)
	if got := tr.Rounds(); len(got) != 2 || &got[0] != &first[0] {
		t.Fatalf("first AddRounds kept %v, not the caller's slice", got)
	}
	tr.AddRounds([]RoundSample{{Kind: "exchange", Messages: 5}})
	got := tr.Rounds()
	if len(got) != 3 || got[0].Messages != 3 || got[1].Kind != "aggregate" || got[2].Messages != 5 {
		t.Fatalf("rounds after two AddRounds = %+v", got)
	}
}
