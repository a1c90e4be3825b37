package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"treesched/internal/core"
	"treesched/internal/instance"
)

// tinyHeightBody is a 4-demand narrow request whose heights, 10⁻⁴, make
// the narrow schedule run tens of thousands of stages per epoch: the
// stage count b, with ξ^b ≤ ε, grows as 1/h_min.
const tinyHeightBody = `{"algo":"narrow","problem":{"kind":"tree","num_vertices":6,` +
	`"tree_edges":[[[1,3],[2,5],[3,5],[4,5],[5,0]],[[1,0],[2,1],[3,1],[4,0],[5,2]]],` +
	`"demands":[{"id":0,"u":4,"profit":8.32,"height":0.0001,"access":[0,1]},` +
	`{"id":1,"u":4,"v":2,"profit":3.64,"height":0.0001,"access":[1]},` +
	`{"id":2,"u":5,"profit":8.76,"height":0.0001,"access":[0,1]},` +
	`{"id":3,"u":1,"v":4,"profit":7.27,"height":0.0001,"access":[1]}]}}`

// The span budget of TestTelemetrySpanBudget in internal/core: a
// constant for the phases plus one span per phase-1 epoch. The service's
// own spans (queued, compiled_model, solve, verify) fit in the constant
// beside narrow's five.
const (
	spanBudgetBase     = 12
	spanBudgetPerEpoch = 1
)

// TestTinyHeightTraceStaysBounded sends the tiny-height body through
// Handler() with every request traced, as the shipped sample rate
// traces every request: its record at /debug/requests/{id} stays within
// the span budget, and its traced solve allocates less than twice what
// the same solve allocates untraced.
func TestTinyHeightTraceStaysBounded(t *testing.T) {
	var req struct {
		Problem *instance.Problem `json:"problem"`
	}
	if err := json.Unmarshal([]byte(tinyHeightBody), &req); err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(req.Problem, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.NarrowOnly(core.Options{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	epochs := len(res.Trace.StepsPerStage)
	if stages := len(res.Trace.StepsPerStage[0]); stages < 10_000 {
		t.Fatalf("the body's schedule runs %d stages per epoch; it is meant to run tens of thousands", stages)
	}

	// sendOnce solves the body on a fresh engine and reports the bytes
	// the process allocated meanwhile.
	sendOnce := func(h http.Handler, id string) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := postHandler(h, []byte(tinyHeightBody), id)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	engine := func(sample float64) http.Handler {
		e := New(Config{TraceSample: sample})
		t.Cleanup(e.Close)
		return e.Handler()
	}
	sendOnce(engine(0), "warm-up") // one-time initialization is paid by neither side
	plain := sendOnce(engine(0), "plain")
	h := engine(1)
	traced := sendOnce(h, "tiny-height")

	dbg := httptest.NewRecorder()
	h.ServeHTTP(dbg, httptest.NewRequest(http.MethodGet, "/debug/requests/tiny-height", nil))
	var payload debugRequestPayload
	if err := json.Unmarshal(dbg.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/debug/requests/tiny-height: %v: %s", err, dbg.Body)
	}
	if payload.Record == nil || payload.Record.Trace == nil {
		t.Fatalf("no retained timeline: %s", dbg.Body)
	}
	spans := payload.Record.Trace.Spans
	if budget := spanBudgetBase + spanBudgetPerEpoch*epochs; len(spans) > budget {
		t.Fatalf("traced record holds %d spans over %d epochs, budget %d", len(spans), epochs, budget)
	}
	if traced >= 2*plain {
		t.Fatalf("traced solve allocated %d B, untraced %d B: want under 2×", traced, plain)
	}
	t.Logf("%d spans over %d epochs; %d B traced, %d B untraced", len(spans), epochs, traced, plain)
}
