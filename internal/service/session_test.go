package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"treesched/internal/core"
	"treesched/internal/gen"
	"treesched/internal/online"
)

func sessionJobs(n int, seed int64) []online.Job {
	rng := rand.New(rand.NewSource(seed))
	p := gen.LineProblem(gen.LineConfig{Slots: 24, Resources: 2, Demands: n, Unit: true, AccessProb: 0.6}, rng)
	jobs := make([]online.Job, n)
	for i, d := range p.Demands {
		jobs[i] = online.Job{ID: int64(100 + i), Demand: d}
	}
	return jobs
}

// TestSessionEndToEnd drives the engine-level session API: open with
// scenario-derived initial jobs, churn, and observe delta recompiles in
// the metrics.
func TestSessionEndToEnd(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	ctx := context.Background()

	info, err := e.OpenSession(&SessionRequest{Algo: "line-unit", Scenario: "videowall-line", ScenarioSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	id := info.SessionID
	if info.Stats.Jobs == 0 {
		t.Fatal("scenario session opened with no initial jobs")
	}

	first, err := e.SessionSchedule(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if first.Incremental {
		t.Fatal("first resolve cannot be incremental")
	}
	if first.Response.Scheduled == 0 {
		t.Fatal("scheduled nothing")
	}
	if len(first.JobIDs) != first.Response.Scheduled {
		t.Fatalf("%d job ids for %d selected", len(first.JobIDs), first.Response.Scheduled)
	}

	// Small churn: remove two initial jobs, add two new ones.
	jobs := sessionJobs(2, 9)
	res, err := e.SessionEvents(ctx, id, []online.Event{
		{Op: online.OpRemove, ID: 0},
		{Op: online.OpRemove, ID: 1},
		{Op: online.OpAdd, Job: &jobs[0]},
		{Op: online.OpAdd, Job: &jobs[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 4 {
		t.Fatalf("applied %d of 4", res.Applied)
	}
	second, err := e.SessionSchedule(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Incremental {
		t.Fatal("small-churn resolve did not take the delta path")
	}

	m := e.Metrics()
	if m.SessionsOpened != 1 || m.SessionsOpen != 1 {
		t.Fatalf("session gauges: %+v", m)
	}
	if m.SessionResolves != 2 || m.SessionResolvesIncremental != 1 || m.SessionResolvesFull != 1 {
		t.Fatalf("resolve counters: %+v", m)
	}
	if m.SessionEvents != 4 {
		t.Fatalf("event counter = %d", m.SessionEvents)
	}

	if err := e.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SessionSchedule(ctx, id); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("closed session lookup: %v", err)
	}
	if m := e.Metrics(); m.SessionsClosed != 1 || m.SessionsOpen != 0 {
		t.Fatalf("close counters: %+v", m)
	}
}

// TestSessionIdleEvictionObservable: an idle session disappears on the
// next manager touch, and the eviction shows in the metrics.
func TestSessionIdleEvictionObservable(t *testing.T) {
	e := New(Config{SessionIdleTimeout: 30 * time.Millisecond})
	defer e.Close()
	ctx := context.Background()

	idle, err := e.OpenSession(&SessionRequest{Algo: "line-unit", Scenario: "videowall-line", ScenarioSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	// Any session operation sweeps; opening a new session is one.
	fresh, err := e.OpenSession(&SessionRequest{Algo: "line-unit", Scenario: "videowall-line", ScenarioSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SessionSchedule(ctx, idle.SessionID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("idle session survived: %v", err)
	}
	if _, err := e.SessionSchedule(ctx, fresh.SessionID); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.SessionsEvicted < 1 {
		t.Fatalf("eviction not observable: %+v", m)
	}
	if m.SessionsOpen != 1 {
		t.Fatalf("open gauge = %d", m.SessionsOpen)
	}
}

// TestSessionLRUEviction: capacity overflow evicts the least recently
// used session.
func TestSessionLRUEviction(t *testing.T) {
	e := New(Config{MaxSessions: 2})
	defer e.Close()
	ctx := context.Background()

	open := func(seed int64) string {
		info, err := e.OpenSession(&SessionRequest{Algo: "line-unit", Scenario: "videowall-line", ScenarioSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return info.SessionID
	}
	a, b := open(1), open(2)
	// Touch a so b is the LRU when c arrives.
	if _, err := e.SessionSchedule(ctx, a); err != nil {
		t.Fatal(err)
	}
	c := open(3)
	if _, err := e.SessionSchedule(ctx, b); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("LRU session survived: %v", err)
	}
	for _, id := range []string{a, c} {
		if _, err := e.SessionSchedule(ctx, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if m := e.Metrics(); m.SessionsEvicted != 1 || m.SessionsOpen != 2 {
		t.Fatalf("eviction counters: %+v", m)
	}
}

// TestSessionConcurrentEventsSerialized hammers one session through the
// engine from many goroutines (run under -race in CI): every add lands
// exactly once, resolves interleave safely, and the final job count is
// exact.
func TestSessionConcurrentEventsSerialized(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	ctx := context.Background()
	info, err := e.OpenSession(&SessionRequest{
		Algo:    "line-unit",
		Network: gen.LineProblem(gen.LineConfig{Slots: 24, Resources: 2, Demands: 1, Unit: true}, rand.New(rand.NewSource(3))),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := info.SessionID
	jobs := sessionJobs(32, 5)
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)+4)
	for i := range jobs {
		wg.Add(1)
		go func(j online.Job) {
			defer wg.Done()
			if _, err := e.SessionEvents(ctx, id, []online.Event{{Op: online.OpAdd, Job: &j}}); err != nil {
				errs <- err
			}
		}(jobs[i])
	}
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.SessionSchedule(ctx, id); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	final, err := e.SessionSchedule(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if final.Jobs != len(jobs)+1 {
		t.Fatalf("final jobs = %d, want %d", final.Jobs, len(jobs)+1)
	}
}

// TestHTTPSessionFlow exercises the four session endpoints over real
// HTTP, including the determinism guarantee: two sessions fed the same
// event stream return byte-identical schedule bodies.
func TestHTTPSessionFlow(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	openBody := `{"algo":"line-unit","scenario":"videowall-line","scenario_seed":3}`
	events := func() string {
		jobs := sessionJobs(2, 13)
		var b strings.Builder
		for i := range jobs {
			line, _ := json.Marshal(online.Event{Op: online.OpAdd, Job: &jobs[i]})
			b.Write(line)
			b.WriteByte('\n')
		}
		line, _ := json.Marshal(online.Event{Op: online.OpRemove, ID: 0})
		b.Write(line)
		b.WriteByte('\n')
		return b.String()
	}()

	runOnce := func() []byte {
		resp, err := http.Post(srv.URL+"/session", "application/json", strings.NewReader(openBody))
		if err != nil {
			t.Fatal(err)
		}
		var info SessionInfo
		decodeBody(t, resp, http.StatusOK, &info)

		resp, err = http.Post(srv.URL+"/session/"+info.SessionID+"/events", "application/x-ndjson", strings.NewReader(events))
		if err != nil {
			t.Fatal(err)
		}
		var evRes SessionEventsResult
		decodeBody(t, resp, http.StatusOK, &evRes)
		if evRes.Applied != 3 {
			t.Fatalf("applied = %d", evRes.Applied)
		}

		resp, err = http.Get(srv.URL + "/session/" + info.SessionID + "/schedule")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("schedule status %d: %s", resp.StatusCode, body)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		// The session id differs per session; strip it before comparing.
		body = bytes.Replace(body, []byte(info.SessionID), []byte("SID"), -1)

		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/session/"+info.SessionID, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("delete status %d", dresp.StatusCode)
		}
		return body
	}

	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("same event stream produced different schedules:\n%s\n%s", a, b)
	}

	// Unknown session → 404.
	resp, err := http.Get(srv.URL + "/session/s-999/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status %d", resp.StatusCode)
	}
}

func decodeBody(t *testing.T, resp *http.Response, wantStatus int, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantStatus, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestResultMemoKeyIncludesAlgorithm is the memoization regression
// guard: two algorithms on the identical problem must never share a
// memo entry, even though KeyOptions collapses their option sets.
func TestResultMemoKeyIncludesAlgorithm(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	ctx := context.Background()
	p := testProblem(21)

	// greedy and exact both normalize to zero Options — if the key
	// dropped the algorithm they would collide.
	first, err := e.Solve(ctx, &Request{Algo: "greedy", Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Solve(ctx, &Request{Algo: "exact", Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if first.Algorithm == second.Algorithm {
		t.Fatalf("both responses claim algorithm %q", first.Algorithm)
	}
	m := e.Metrics()
	if m.ResultMisses != 2 {
		t.Fatalf("expected 2 result-cache misses, got %d (memo key collision?)", m.ResultMisses)
	}
	// And replays hit their own entries.
	again, err := e.Solve(ctx, &Request{Algo: "greedy", Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("greedy replay did not hit its memo entry")
	}
	if m := e.Metrics(); m.ResultHits != 1 {
		t.Fatalf("expected 1 hit, got %d", m.ResultHits)
	}
	// The raw key strings must differ on algo alone: KeyOptions collapses
	// both algorithms' options to the same normal form.
	greedy, _ := core.Lookup("greedy")
	exact, _ := core.Lookup("exact")
	opts := core.Options{Epsilon: 0.3, Seed: 7, MaxNodes: 5}
	ka := resultKey("h", greedy, opts)
	kb := resultKey("h", exact, opts)
	if ka == kb {
		t.Fatalf("resultKey collision: %q", ka)
	}
	// The key strings themselves are pinned: a changed format would
	// orphan every entry of a warm cache.
	opts.FixedRounds = true
	for algo, want := range map[string]string{
		"greedy":    "h|algo=greedy|eps=0|seed=0|fixed=false|nodes=0",
		"exact":     "h|algo=exact|eps=0|seed=0|fixed=false|nodes=5",
		"tree-unit": "h|algo=tree-unit|eps=0.3|seed=7|fixed=false|nodes=0",
		"dist-unit": "h|algo=dist-unit|eps=0.3|seed=7|fixed=true|nodes=0",
	} {
		a, _ := core.Lookup(algo)
		if got := resultKey("h", a, opts); got != want {
			t.Errorf("resultKey(%s) = %q, want %q", algo, got, want)
		}
	}
	a, _ := core.Lookup("line-unit")
	if got, want := resultKey("h", a, core.Options{}), "h|algo=line-unit|eps=0.25|seed=0|fixed=false|nodes=0"; got != want {
		t.Errorf("default epsilon: resultKey = %q, want %q", got, want)
	}
}
