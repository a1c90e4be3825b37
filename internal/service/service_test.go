package service

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/scenario"
)

func testProblem(seed int64) *instance.Problem {
	rng := rand.New(rand.NewSource(seed))
	return gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 2, Demands: 16, Unit: true}, rng)
}

// TestEveryScenarioSolvesEndToEnd: each preset must solve with its
// default algorithm through the engine, for several seeds.
func TestEveryScenarioSolvesEndToEnd(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	for _, s := range scenario.All() {
		for seed := int64(1); seed <= 3; seed++ {
			// Benchmark-scale presets solve at a capped size: the
			// end-to-end property is size-independent and a default-size
			// line-100k solve is a multi-second benchmark, not a unit test.
			var params scenario.Params
			if s.Scale {
				params = scenario.Params{Demands: 40, Size: 64, Networks: 8}
			}
			resp, err := e.Solve(context.Background(), &Request{
				Algo:           s.DefaultAlgo,
				Scenario:       s.Name,
				ScenarioSeed:   seed,
				ScenarioParams: params,
			})
			if err != nil {
				t.Fatalf("%s seed %d (%s): %v", s.Name, seed, s.DefaultAlgo, err)
			}
			if resp.Scheduled == 0 {
				t.Errorf("%s seed %d: scheduled nothing", s.Name, seed)
			}
			if resp.DualUpperBound > 0 && resp.DualUpperBound+1e-6 < resp.Profit {
				t.Errorf("%s seed %d: DualUB %g < profit %g", s.Name, seed, resp.DualUpperBound, resp.Profit)
			}
		}
	}
}

// TestByteIdenticalResponses: equal requests must marshal to identical
// bytes whether served cold (fresh engine) or from the result cache.
func TestByteIdenticalResponses(t *testing.T) {
	req := func() *Request {
		return &Request{Algo: "tree-unit", Scenario: "profit-ladder", ScenarioSeed: 4, Seed: 2}
	}
	e1 := New(Config{})
	defer e1.Close()
	cold, err := e1.Solve(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := e1.Solve(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{})
	defer e2.Close()
	otherEngine, err := e2.Solve(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(cold)
	b, _ := json.Marshal(cached)
	c, _ := json.Marshal(otherEngine)
	if string(a) != string(b) {
		t.Error("cold and cached responses differ")
	}
	if string(a) != string(c) {
		t.Error("responses differ across engines")
	}
	m := e1.Metrics()
	if m.ResultHits != 1 || m.ResultMisses != 1 {
		t.Errorf("result cache hits=%d misses=%d, want 1/1", m.ResultHits, m.ResultMisses)
	}
}

// TestCompiledCacheReuse: one problem, many algorithms and seeds — the
// model must compile exactly once.
func TestCompiledCacheReuse(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	p := testProblem(11)
	for _, algo := range []string{"tree-unit", "sequential", "greedy", "dist-unit"} {
		for seed := uint64(0); seed < 2; seed++ {
			if _, err := e.Solve(context.Background(), &Request{Algo: algo, Problem: p, Seed: seed}); err != nil {
				t.Fatalf("%s seed %d: %v", algo, seed, err)
			}
		}
	}
	m := e.Metrics()
	if m.CompiledMisses != 1 {
		t.Errorf("compiled %d times, want 1 (hits %d)", m.CompiledMisses, m.CompiledHits)
	}
	// Key normalization: greedy and sequential ignore the solver seed,
	// so their seed-0/seed-1 pairs share one memoization entry each —
	// 6 distinct keys, 2 result hits, and a compiled lookup per miss.
	if m.ResultMisses != 6 || m.ResultHits != 2 {
		t.Errorf("result cache hits=%d misses=%d, want 2/6", m.ResultHits, m.ResultMisses)
	}
	if m.CompiledHits != 5 {
		t.Errorf("compiled cache hits = %d, want 5", m.CompiledHits)
	}
}

// TestEveryAlgorithmDispatches: the registry must cover all 12 public
// Solve* entry points and each must run on a suitable problem.
func TestEveryAlgorithmDispatches(t *testing.T) {
	want := []string{"arbitrary", "dist-narrow", "dist-ps", "dist-unit", "exact", "greedy",
		"line-unit", "narrow", "ps", "seq-line", "sequential", "tree-unit"}
	got := Algorithms()
	if len(got) != len(want) {
		t.Fatalf("Algorithms() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Algorithms() = %v, want %v", got, want)
		}
	}

	e := New(Config{})
	defer e.Close()
	// A suitable scenario per algorithm family.
	scenarioFor := map[string]string{
		"tree-unit": "caterpillar-backbone", "sequential": "caterpillar-backbone",
		"dist-unit": "caterpillar-backbone", "exact": "star-uplink",
		"greedy": "sensor-tree", "arbitrary": "sensor-tree",
		"narrow": "narrow-stream", "dist-narrow": "narrow-stream",
		"line-unit": "videowall-line", "seq-line": "videowall-line",
		"ps": "videowall-line", "dist-ps": "videowall-line",
	}
	for _, algo := range got {
		sc := scenarioFor[algo]
		req := &Request{Algo: algo, Scenario: sc, ScenarioSeed: 1,
			ScenarioParams: scenario.Params{Demands: 12, Size: 16}}
		if _, err := e.Solve(context.Background(), req); err != nil {
			t.Errorf("%s on %s: %v", algo, sc, err)
		}
	}
}

// TestRequestValidation covers the rejection paths.
func TestRequestValidation(t *testing.T) {
	e := New(Config{MaxDemands: 10})
	defer e.Close()
	ctx := context.Background()
	cases := []struct {
		name string
		req  *Request
	}{
		{"unknown algo", &Request{Algo: "quantum", Scenario: "sensor-tree"}},
		{"no problem or scenario", &Request{Algo: "tree-unit"}},
		{"both problem and scenario", &Request{Algo: "tree-unit", Problem: testProblem(1), Scenario: "sensor-tree"}},
		{"unknown scenario", &Request{Algo: "tree-unit", Scenario: "nope"}},
		{"too many demands", &Request{Algo: "tree-unit", Problem: testProblem(1)}},
		{"kind mismatch", &Request{Algo: "line-unit", Scenario: "sensor-tree", ScenarioParams: scenario.Params{Demands: 5}}},
	}
	for _, tc := range cases {
		if _, err := e.Solve(ctx, tc.req); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
	m := e.Metrics()
	if m.Errors != int64(len(cases)) {
		t.Errorf("error counter = %d, want %d", m.Errors, len(cases))
	}
}

// TestInternalErrorClassification: server-side faults (here: the exact
// solver exhausting its server-imposed node budget) must not be tagged
// ErrBadRequest — the HTTP layer would blame the client with a 400.
func TestInternalErrorClassification(t *testing.T) {
	e := New(Config{MaxExactNodes: 3})
	defer e.Close()
	_, err := e.Solve(context.Background(), &Request{Algo: "exact", Scenario: "star-uplink", ScenarioSeed: 1})
	if err == nil {
		t.Fatal("expected the node budget to be exhausted")
	}
	if errors.Is(err, ErrBadRequest) {
		t.Fatalf("budget exhaustion classified as a client error: %v", err)
	}
}

// TestResultKeyNormalization: an omitted epsilon and the explicit
// default must share one memoization entry, as must solver seeds on
// seed-insensitive algorithms.
func TestResultKeyNormalization(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Solve(ctx, &Request{Algo: "tree-unit", Scenario: "star-uplink", ScenarioSeed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(ctx, &Request{Algo: "tree-unit", Scenario: "star-uplink", ScenarioSeed: 1, Epsilon: 0.25}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(ctx, &Request{Algo: "greedy", Scenario: "star-uplink", ScenarioSeed: 1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(ctx, &Request{Algo: "greedy", Scenario: "star-uplink", ScenarioSeed: 1, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.ResultMisses != 2 || m.ResultHits != 2 {
		t.Errorf("result cache hits=%d misses=%d, want 2/2", m.ResultHits, m.ResultMisses)
	}
}

// TestHostileRequestsDoNotCrash: requests that drive core into a panic
// (out-of-range epsilon) or the generator into degenerate sizes must
// come back as errors, not kill the process or leak a worker slot.
func TestHostileRequestsDoNotCrash(t *testing.T) {
	e := New(Config{Workers: 1})
	ctx := context.Background()
	hostile := []*Request{
		{Algo: "tree-unit", Scenario: "caterpillar-backbone", Epsilon: -1},
		{Algo: "tree-unit", Scenario: "caterpillar-backbone", Epsilon: 1.5},
		{Algo: "tree-unit", Scenario: "caterpillar-backbone", ScenarioParams: scenario.Params{Size: 1}},
		{Algo: "tree-unit", Scenario: "caterpillar-backbone", ScenarioParams: scenario.Params{Size: -5}},
		{Algo: "tree-unit", Scenario: "caterpillar-backbone", ScenarioParams: scenario.Params{Networks: -1}},
		{Algo: "tree-unit", Scenario: "spider-hub", ScenarioParams: scenario.Params{Size: 2, Demands: 3}},
	}
	for i, req := range hostile {
		if _, err := e.Solve(ctx, req); err == nil {
			t.Errorf("hostile request %d: expected an error", i)
		} else if !errors.Is(err, ErrBadRequest) {
			t.Errorf("hostile request %d: want ErrBadRequest, got %v", i, err)
		}
	}
	// The single worker slot must still be free: a normal solve succeeds.
	if _, err := e.Solve(ctx, &Request{Algo: "greedy", Scenario: "sensor-tree",
		ScenarioParams: scenario.Params{Demands: 5}}); err != nil {
		t.Fatalf("engine unusable after hostile requests: %v", err)
	}
	// And Close must not hang on leaked in-flight work.
	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung — worker slot leaked")
	}
}

// TestClosedEngine: Solve after Close must fail fast.
func TestClosedEngine(t *testing.T) {
	e := New(Config{})
	e.Close()
	if _, err := e.Solve(context.Background(), &Request{Algo: "greedy", Scenario: "sensor-tree"}); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestConcurrentMixedLoad hammers one engine from many goroutines (run
// under -race in CI): mixed algorithms, scenarios and seeds, with heavy
// key overlap so cache hit paths race with misses. Each of the two
// distinct problems must compile exactly once. CompiledMisses cannot
// show that — it also counts coalesced followers and lost-race rechecks
// (flight_test.go pins that meaning) — so the compile gate counts the
// leaders that find the model absent: only one leader per hash runs
// between the gate and the recheck, so those calls are exactly the
// compilations.
func TestConcurrentMixedLoad(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close()
	var compiles atomic.Int64
	e.compileGate = func(hash string) {
		if _, ok := e.compiled.get(hash); !ok {
			compiles.Add(1)
		}
	}
	algos := []string{"tree-unit", "greedy", "sequential", "arbitrary"}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := &Request{
				Algo:         algos[g%len(algos)],
				Scenario:     "caterpillar-backbone",
				ScenarioSeed: int64(g % 2),
				Seed:         uint64(g % 3),
			}
			if _, err := e.Solve(context.Background(), req); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Requests != 32 {
		t.Errorf("requests = %d, want 32", m.Requests)
	}
	if n := compiles.Load(); n != 2 {
		t.Errorf("compiled %d times for 2 distinct problems", n)
	}
}

// TestLRU unit-tests the cache.
func TestLRU(t *testing.T) {
	c := newLRU[int](2)
	c.add("a", 1)
	c.add("b", 2)
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatal("lost a")
	}
	c.add("c", 3) // evicts b (least recently used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c should be present")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}
