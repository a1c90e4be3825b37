package core

import (
	"reflect"
	"testing"

	"treesched/internal/instance"
	"treesched/internal/scenario"
)

// TestParallelCompileEquivalence is the determinism contract of the
// parallel compiler: for every scenario, every solver entry point and
// three seeds, a Compiled built with CompileWorkers 2 or GOMAXPROCS
// produces exactly the outcome of the serial oracle (CompileWorkers=1) —
// identical selections, profits, duals, network stats, and identical
// precondition errors. The models themselves must be deep-equal too, so
// a scheduling-dependent divergence can never hide behind a solver that
// happens not to read the differing field.
func TestParallelCompileEquivalence(t *testing.T) {
	for name, p := range scenarioProblems(t) {
		oracle, err := Compile(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle.SetCompileWorkers(1)
		oracleModel, err := oracle.Model()
		if err != nil {
			t.Fatalf("%s: oracle model: %v", name, err)
		}
		for _, w := range []int{2, 0} {
			c, err := Compile(p, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			c.SetCompileWorkers(w)
			m, err := c.Model()
			if err != nil {
				t.Fatalf("%s workers=%d: model: %v", name, w, err)
			}
			if !reflect.DeepEqual(oracleModel, m) {
				t.Fatalf("%s: model built with workers=%d differs from the serial oracle", name, w)
			}
			for _, ep := range Algorithms() {
				for seed := uint64(1); seed <= 3; seed++ {
					opts := Options{Epsilon: 0.25, Seed: seed, MaxNodes: 500_000}
					want := outcomeOf(ep.Run(oracle, opts))
					got := outcomeOf(ep.Run(c, opts))
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s/%s seed %d workers=%d: diverged from serial oracle:\n  %+v\nvs\n  %+v",
							name, ep.Name, seed, w, got, want)
					}
				}
			}
		}
	}
}

// TestCompileWorkersCarryAcrossWithJobs: a fan-out set with
// SetCompileWorkers sticks for later generations via WithJobs, with
// results identical to the serial oracle's generation.
func TestCompileWorkersCarryAcrossWithJobs(t *testing.T) {
	s, ok := scenario.Get("caterpillar-backbone")
	if !ok {
		t.Fatal("missing scenario caterpillar-backbone")
	}
	p, err := s.Generate(scenario.Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Compile(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle.SetCompileWorkers(1)
	c, err := Compile(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCompileWorkers(2)
	if _, err := c.TreeUnit(Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}

	// The knob carries across WithJobs generations (delta or fallback).
	nc, err := c.WithJobs(nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if nc.workers != 2 {
		t.Fatalf("workers after WithJobs = %d, want 2", nc.workers)
	}
	no, err := oracle.WithJobs(nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rw, errw := nc.TreeUnit(Options{Seed: 3})
	ro, erro := no.TreeUnit(Options{Seed: 3})
	if got, want := outcomeOf(rw, nil, errw), outcomeOf(ro, nil, erro); !reflect.DeepEqual(want, got) {
		t.Fatalf("WithJobs generation diverged from serial oracle:\n  %+v\nvs\n  %+v", got, want)
	}
}

// TestCompileBatchMatchesLoop requires CompileBatch to be a drop-in for
// the equivalent compile loop — per-slot errors included: an invalid
// problem fails its own slot and leaves every other slot intact.
func TestCompileBatchMatchesLoop(t *testing.T) {
	var ps []*instance.Problem
	for _, name := range []string{"caterpillar-backbone", "videowall-line", "narrow-stream", "capacitated-tree"} {
		s, ok := scenario.Get(name)
		if !ok {
			t.Fatalf("missing scenario %s", name)
		}
		p, err := s.Generate(scenario.Params{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	bad := 2
	ps = append(ps[:bad], append([]*instance.Problem{{Kind: instance.KindTree}}, ps[bad:]...)...)

	for _, workers := range []int{1, 4} {
		cs, errs := CompileBatch(ps, 0, workers)
		for i, p := range ps {
			if i == bad {
				if errs[i] == nil || cs[i] != nil {
					t.Fatalf("workers=%d: invalid slot %d: err=%v compiled=%v", workers, i, errs[i], cs[i])
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("workers=%d: slot %d: %v", workers, i, errs[i])
			}
			want, err := Compile(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			want.SetCompileWorkers(1)
			wm, err := want.Model()
			if err != nil {
				t.Fatal(err)
			}
			gm, err := cs[i].Model()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wm, gm) {
				t.Fatalf("workers=%d: slot %d model differs from serial Compile", workers, i)
			}
		}

		res, serrs := SolveBatch(cs, workers, func(_ int, c *Compiled) (*Result, error) {
			return c.Greedy(Options{})
		})
		for i := range ps {
			if i == bad {
				if res[i] != nil || serrs[i] != nil {
					t.Fatalf("workers=%d: nil slot %d not skipped: %v %v", workers, i, res[i], serrs[i])
				}
				continue
			}
			if serrs[i] != nil {
				t.Fatalf("workers=%d: solve slot %d: %v", workers, i, serrs[i])
			}
			want, err := cs[i].Greedy(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := outcomeOf(res[i], nil, nil), outcomeOf(want, nil, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: solve slot %d diverged:\n  %+v\nvs\n  %+v", workers, i, got, want)
			}
		}
	}
}

// TestSolveBatchWarmAllocations pins the allocation budget of the warm
// batch path: once the compilations are warm, a SolveBatch pass may
// allocate only the result slices, the per-item Results and pool
// trimmings — the same order as the individual warm solves it wraps.
func TestSolveBatchWarmAllocations(t *testing.T) {
	s, ok := scenario.Get("caterpillar-backbone")
	if !ok {
		t.Fatal("missing scenario caterpillar-backbone")
	}
	cs := make([]*Compiled, 4)
	for i := range cs {
		p, err := s.Generate(scenario.Params{}, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if cs[i], err = Compile(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	solve := func() {
		_, errs := SolveBatch(cs, 1, func(_ int, c *Compiled) (*Result, error) {
			return c.TreeUnit(Options{Seed: 1})
		})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	solve() // warm the lazy models + pools
	const perSolveBudget = 80
	if avg := testing.AllocsPerRun(20, solve); avg > perSolveBudget*float64(len(cs)) {
		t.Errorf("warm SolveBatch: %.1f allocs for %d solves, budget %d",
			avg, len(cs), perSolveBudget*len(cs))
	}
}
