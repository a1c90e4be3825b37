package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/verify"
)

func compileTestTreeProblem(t *testing.T, unit bool) *Compiled {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cfg := gen.TreeConfig{N: 24, Trees: 2, Demands: 24, Unit: unit}
	if !unit {
		cfg.HMin, cfg.HMax = 0.1, 1.0
	}
	c, err := Compile(gen.TreeProblem(cfg, rng), 0)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// TestCompiledMatchesPackageLevel: solving through a Compiled must give
// exactly what the one-shot package-level Solve gives.
func TestCompiledMatchesPackageLevel(t *testing.T) {
	c := compileTestTreeProblem(t, true)
	opts := Options{Seed: 3}

	fromCompiled, err := c.TreeUnit(opts)
	if err != nil {
		t.Fatalf("compiled TreeUnit: %v", err)
	}
	fresh, err := solve(c.Problem(), "tree-unit", opts)
	if err != nil {
		t.Fatalf("Solve tree-unit: %v", err)
	}
	if !SameSelection(fromCompiled, fresh) || fromCompiled.Profit != fresh.Profit {
		t.Fatal("compiled TreeUnit and Solve disagree")
	}

	seq1, err := c.Sequential(opts)
	if err != nil {
		t.Fatalf("compiled Sequential: %v", err)
	}
	seq2, err := solve(c.Problem(), "sequential", opts)
	if err != nil {
		t.Fatalf("Solve sequential: %v", err)
	}
	if !SameSelection(seq1, seq2) {
		t.Fatal("compiled Sequential and Solve disagree")
	}
}

// TestCompiledSolveMany: repeated and mixed solves on one Compiled are
// deterministic, feasible, and leave the shared models unchanged.
func TestCompiledSolveMany(t *testing.T) {
	c := compileTestTreeProblem(t, false)
	first, err := c.Arbitrary(Options{Seed: 1})
	if err != nil {
		t.Fatalf("Arbitrary: %v", err)
	}
	for trial := 0; trial < 3; trial++ {
		r, err := c.Arbitrary(Options{Seed: 1})
		if err != nil {
			t.Fatalf("Arbitrary trial %d: %v", trial, err)
		}
		if !SameSelection(first, r) || r.Profit != first.Profit {
			t.Fatalf("trial %d: repeated solve diverged", trial)
		}
		if err := verify.Solution(c.Problem(), r.Selected); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
	}
	// Mixing in other algorithms must not perturb subsequent solves.
	// (NarrowOnly may legitimately reject the mixed-height workload.)
	c.NarrowOnly(Options{}) // nolint:errcheck
	if _, err := c.Greedy(Options{}); err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	again, err := c.Arbitrary(Options{Seed: 1})
	if err != nil {
		t.Fatalf("Arbitrary after mixing: %v", err)
	}
	if !SameSelection(first, again) {
		t.Fatal("solve after mixed algorithms diverged — shared model mutated?")
	}
}

// TestCompiledSequentialLineIsolated: the end-slot π rewrite must live in
// the dedicated line model, leaving the full model's critical sets alone.
func TestCompiledSequentialLineIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := gen.LineProblem(gen.LineConfig{Slots: 24, Resources: 2, Demands: 20, Unit: true}, rng)
	c, err := Compile(p, 0)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	before, err := c.LineUnit(Options{Seed: 2})
	if err != nil {
		t.Fatalf("LineUnit: %v", err)
	}
	if _, err := c.SequentialLine(Options{}); err != nil {
		t.Fatalf("SequentialLine: %v", err)
	}
	fullM, err := c.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	if fullM.Delta == 1 {
		t.Fatal("SequentialLine mutated the shared full model's Delta")
	}
	after, err := c.LineUnit(Options{Seed: 2})
	if err != nil {
		t.Fatalf("LineUnit after SequentialLine: %v", err)
	}
	if !SameSelection(before, after) {
		t.Fatal("LineUnit diverged after SequentialLine — π sets leaked")
	}
}

// TestCompiledConcurrentSolves exercises one Compiled from many
// goroutines (run under -race in CI).
func TestCompiledConcurrentSolves(t *testing.T) {
	c := compileTestTreeProblem(t, true)
	want, err := c.TreeUnit(Options{Seed: 9})
	if err != nil {
		t.Fatalf("TreeUnit: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var r *Result
			var err error
			switch g % 3 {
			case 0:
				r, err = c.TreeUnit(Options{Seed: 9})
			case 1:
				r, err = c.Arbitrary(Options{Seed: 9})
			default:
				r, err = c.Sequential(Options{Seed: 9})
			}
			if err != nil {
				errs <- err
				return
			}
			if g%3 == 0 && !SameSelection(r, want) {
				errs <- errors.New("concurrent TreeUnit diverged")
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent solve: %v", err)
	}
}
