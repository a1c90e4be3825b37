package core

import (
	"fmt"
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/treedecomp"
	"treesched/internal/verify"
)

// TestAlgorithmTopologyMatrix sweeps every centralized algorithm across
// every topology family and height regime it supports, asserting the full
// postcondition set each time: feasibility, certificate ≤ bound, and
// profit within the dual upper bound. This is the systematic coverage
// net — any regression in decomposition, layering, raising or selection
// trips it.
func TestAlgorithmTopologyMatrix(t *testing.T) {
	shapes := []gen.TreeShape{
		gen.ShapeRandom, gen.ShapeBinary, gen.ShapeCaterpillar,
		gen.ShapePath, gen.ShapeStar, gen.ShapeSpider,
	}
	type algo struct {
		name string
		unit bool
		run  func(p *instanceProblemT, seed uint64) (*Result, error)
	}
	algos := []algo{
		{"tree-unit", true, func(p *instanceProblemT, s uint64) (*Result, error) {
			return solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: s})
		}},
		{"sequential", true, func(p *instanceProblemT, s uint64) (*Result, error) {
			return solve(p, "sequential", Options{})
		}},
		{"arbitrary", false, func(p *instanceProblemT, s uint64) (*Result, error) {
			return solve(p, "arbitrary", Options{Epsilon: 0.25, Seed: s})
		}},
		{"greedy", false, func(p *instanceProblemT, s uint64) (*Result, error) {
			return solve(p, "greedy", Options{})
		}},
	}
	rng := rand.New(rand.NewSource(99))
	for _, shape := range shapes {
		for _, a := range algos {
			t.Run(fmt.Sprintf("%s/%s", a.name, shape), func(t *testing.T) {
				cfg := gen.TreeConfig{
					N: 17, Trees: 2, Demands: 10, Shape: shape, Unit: a.unit,
				}
				if !a.unit {
					cfg.HMin, cfg.HMax = 0.1, 1.0
				}
				p := gen.TreeProblem(cfg, rng)
				res, err := a.run(p, 7)
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.Solution(p, res.Selected); err != nil {
					t.Fatal(err)
				}
				if res.Bound > 0 && res.CertifiedRatio > res.Bound+1e-6 {
					t.Fatalf("certified ratio %.3f > bound %.3f", res.CertifiedRatio, res.Bound)
				}
				if res.Profit > res.DualUB+1e-6 && res.Bound > 0 {
					t.Fatalf("profit %g above its own dual bound %g", res.Profit, res.DualUB)
				}
			})
		}
	}
}

// instanceProblemT keeps the matrix signatures readable.
type instanceProblemT = instance.Problem

// TestDecompositionKindMatrix runs TreeUnit under all three decomposition
// kinds on all shapes — the framework must stay correct (only ∆ and the
// epoch count change).
func TestDecompositionKindMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []gen.TreeShape{gen.ShapeRandom, gen.ShapePath, gen.ShapeStar} {
		for _, kind := range []treedecomp.Kind{treedecomp.KindIdeal, treedecomp.KindBalancing, treedecomp.KindRootFixing} {
			p := gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 2, Demands: 10, Unit: true, Shape: shape}, rng)
			res, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: 3, DecompKind: kind, CollectTrace: true})
			if err != nil {
				t.Fatalf("%v/%v: %v", shape, kind, err)
			}
			if err := verify.Solution(p, res.Selected); err != nil {
				t.Fatalf("%v/%v: %v", shape, kind, err)
			}
			if err := CheckInterference(res.Model, res.Trace); err != nil {
				t.Fatalf("%v/%v: %v", shape, kind, err)
			}
			if res.CertifiedRatio > res.Bound+1e-6 {
				t.Fatalf("%v/%v: ratio above bound", shape, kind)
			}
		}
	}
}
