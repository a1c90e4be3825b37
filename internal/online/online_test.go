package online

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
)

func lineNetwork() *instance.Problem {
	return &instance.Problem{Kind: instance.KindLine, NumSlots: 24, NumResources: 2}
}

func lineJobs(n int, seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	p := gen.LineProblem(gen.LineConfig{Slots: 24, Resources: 2, Demands: n, Unit: true, AccessProb: 0.6}, rng)
	jobs := make([]Job, n)
	for i, d := range p.Demands {
		jobs[i] = Job{ID: int64(100 + i), Demand: d}
	}
	return jobs
}

func TestSessionLifecycle(t *testing.T) {
	s, err := NewSession(lineNetwork(), Config{Algo: "line-unit", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := lineJobs(12, 5)
	for i := range jobs[:8] {
		if _, err := s.Apply(Event{Op: OpAdd, Job: &jobs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	sched, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sched.Jobs != 8 || sched.Incremental {
		t.Fatalf("first resolve: jobs=%d incremental=%t", sched.Jobs, sched.Incremental)
	}
	if len(sched.JobIDs) != len(sched.Result.Selected) {
		t.Fatalf("JobIDs len %d vs %d selected", len(sched.JobIDs), len(sched.Result.Selected))
	}
	for k, d := range sched.Result.Selected {
		if want := jobs[d.Demand].ID; sched.JobIDs[k] != want {
			t.Fatalf("selected %d maps to job %d, want %d", k, sched.JobIDs[k], want)
		}
	}

	// Small churn: remove one, add one → delta path.
	if _, err := s.Apply(Event{Op: OpRemove, ID: jobs[2].ID}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Event{Op: OpAdd, Job: &jobs[8]}); err != nil {
		t.Fatal(err)
	}
	sched2, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !sched2.Incremental {
		t.Fatal("small-churn resolve did not take the delta path")
	}
	if sched2.Jobs != 8 {
		t.Fatalf("jobs=%d after swap, want 8", sched2.Jobs)
	}

	// Unchanged set → cached.
	sched3, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sched3 != sched2 {
		t.Fatal("unchanged resolve did not serve the cached schedule")
	}
	st := s.Stats()
	if st.Resolves != 3 || st.CachedResolves != 1 || st.IncrementalResolves != 1 || st.FullResolves != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSessionMatchesFromScratch replays a random event stream and checks
// every resolve against an independent session fed the same final state
// cold — the session-level face of the WithJobs equivalence suite.
func TestSessionMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	jobs := lineJobs(30, 7)
	s, err := NewSession(lineNetwork(), Config{Algo: "line-unit", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	live := map[int64]Job{}
	next := 0
	for round := 0; round < 6; round++ {
		for k := 1 + rng.Intn(4); k > 0 && next < len(jobs); k-- {
			j := jobs[next]
			next++
			if _, err := s.Apply(Event{Op: OpAdd, Job: &j}); err != nil {
				t.Fatal(err)
			}
			live[j.ID] = j
		}
		for id := range live {
			if rng.Intn(6) == 0 {
				if _, err := s.Apply(Event{Op: OpRemove, ID: id}); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
			}
		}
		got, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}

		// Fresh session, same live set added in the same relative order.
		ref, err := NewSession(lineNetwork(), Config{Algo: "line-unit", Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range liveOrder(s) {
			j := live[id]
			if _, err := ref.Apply(Event{Op: OpAdd, Job: &j}); err != nil {
				t.Fatal(err)
			}
		}
		want, err := ref.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		g, _ := json.Marshal(got.Result.Selected)
		w, _ := json.Marshal(want.Result.Selected)
		if string(g) != string(w) || got.Result.Profit != want.Result.Profit {
			t.Fatalf("round %d diverged:\n got %s (profit %g)\nwant %s (profit %g)",
				round, g, got.Result.Profit, w, want.Result.Profit)
		}
	}
}

// liveOrder exposes the committed order for the reference replay.
func liveOrder(s *Session) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.order...)
}

// TestSessionConcurrentEvents hammers one session from many goroutines;
// the mutex must serialize them so every add lands exactly once and the
// final resolve sees the full set. Run under -race in CI.
func TestSessionConcurrentEvents(t *testing.T) {
	s, err := NewSession(lineNetwork(), Config{Algo: "line-unit"})
	if err != nil {
		t.Fatal(err)
	}
	jobs := lineJobs(40, 11)
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)+8)
	for i := range jobs {
		wg.Add(1)
		go func(j Job) {
			defer wg.Done()
			if _, err := s.Apply(Event{Op: OpAdd, Job: &j}); err != nil {
				errs <- err
			}
		}(jobs[i])
	}
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Resolve(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sched, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sched.Jobs != len(jobs) {
		t.Fatalf("resolved %d jobs, want %d", sched.Jobs, len(jobs))
	}
	if st := s.Stats(); st.Events != int64(len(jobs)) {
		t.Fatalf("events = %d, want %d", st.Events, len(jobs))
	}
}

func TestSessionEventValidation(t *testing.T) {
	s, err := NewSession(lineNetwork(), Config{Algo: "line-unit"})
	if err != nil {
		t.Fatal(err)
	}
	j := lineJobs(1, 3)[0]
	if _, err := s.Apply(Event{Op: OpAdd, Job: &j}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Event{Op: OpAdd, Job: &j}); err == nil {
		t.Fatal("duplicate add did not error")
	}
	if _, err := s.Apply(Event{Op: OpRemove, ID: 999}); err == nil {
		t.Fatal("remove of unknown job did not error")
	}
	if _, err := s.Apply(Event{Op: "noop"}); err == nil {
		t.Fatal("unknown op did not error")
	}
	// Add-then-remove between resolves never reaches the compiler.
	if _, err := s.Apply(Event{Op: OpRemove, ID: j.ID}); err != nil {
		t.Fatal(err)
	}
	sched, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sched.Jobs != 0 {
		t.Fatalf("jobs = %d, want 0", sched.Jobs)
	}

	if _, err := NewSession(lineNetwork(), Config{Algo: "nope"}); err == nil {
		t.Fatal("unknown algorithm did not error")
	}
	if _, err := NewSession(lineNetwork(), Config{Algo: "line-unit", Epsilon: 1.5}); err == nil {
		t.Fatal("bad epsilon did not error")
	}
}

// TestSessionFailedResolveKeepsState: a resolve whose solve fails (algo
// precondition) must leave the staged delta intact so a later resolve
// can succeed — and must not corrupt the job set.
func TestSessionFailedResolveKeepsState(t *testing.T) {
	// tree-unit on a session fed a fractional-height job fails its
	// unit-height precondition.
	rng := rand.New(rand.NewSource(2))
	p := gen.TreeProblem(gen.TreeConfig{N: 12, Trees: 1, Demands: 4, Unit: true}, rng)
	net := *p
	net.Demands = nil
	s, err := NewSession(&net, Config{Algo: "tree-unit"})
	if err != nil {
		t.Fatal(err)
	}
	frac := p.Demands[0]
	frac.Height = 0.4
	if _, err := s.Apply(Event{Op: OpAdd, Job: &Job{ID: 1, Demand: frac}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(); err == nil {
		t.Fatal("tree-unit on fractional heights should fail")
	}
	if _, err := s.Apply(Event{Op: OpRemove, ID: 1}); err != nil {
		t.Fatalf("session corrupted after failed resolve: %v", err)
	}
	if _, err := s.Apply(Event{Op: OpAdd, Job: &Job{ID: 2, Demand: p.Demands[1]}}); err != nil {
		t.Fatal(err)
	}
	sched, err := s.Resolve()
	if err != nil {
		t.Fatalf("recovery resolve: %v", err)
	}
	if sched.Jobs != 1 {
		t.Fatalf("jobs = %d, want 1", sched.Jobs)
	}
}

func TestAlgorithmsListsCore(t *testing.T) {
	for _, want := range []string{"tree-unit", "line-unit", "arbitrary", "dist-unit"} {
		found := false
		for _, a := range Algorithms() {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Algorithms() missing %s: %v", want, Algorithms())
		}
	}
}
