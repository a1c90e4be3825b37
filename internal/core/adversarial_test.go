package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"treesched/internal/gen"
	"treesched/internal/verify"
)

func TestAdversarialHubStaysWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sawMultiStepStage := false
	for trial := 0; trial < 10; trial++ {
		p := gen.AdversarialHub(4, 3, 2, 16, rng)
		res, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: uint64(trial), CollectTrace: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.Solution(p, res.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.CertifiedRatio > res.Bound+1e-6 {
			t.Fatalf("trial %d: certified ratio %.3f exceeds bound %.3f under adversarial load",
				trial, res.CertifiedRatio, res.Bound)
		}
		if err := CheckInterference(res.Model, res.Trace); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, epoch := range res.Trace.StepsPerStage {
			for _, s := range epoch {
				if s > 1 {
					sawMultiStepStage = true
				}
			}
		}
		// Exact comparison: all demands pairwise conflict per network, so
		// OPT is easy to eyeball and B&B is fast.
		opt, err := solve(p, "exact", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if opt.Profit/res.Profit > res.Bound+1e-9 {
			t.Fatalf("trial %d: true ratio %.3f above bound", trial, opt.Profit/res.Profit)
		}
	}
	if !sawMultiStepStage {
		t.Fatal("adversarial workload never produced a kill chain (geometric profits should)")
	}
}

func TestAdversarialDistributedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := gen.AdversarialHub(3, 4, 2, 12, rng)
	central, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	distrib, err := solveDist(p, "dist-unit", Options{Epsilon: 0.25, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if !SameSelection(central, distrib.Result) {
		t.Fatal("adversarial workload broke the distributed/centralized equivalence")
	}
}

// TestTreeUnitPropertyBased drives the full pipeline from arbitrary quick
// inputs: any generated problem must yield a feasible solution whose
// certified ratio respects the instantiated bound.
func TestTreeUnitPropertyBased(t *testing.T) {
	f := func(seed int64, rawN, rawR, rawM uint8, rawEps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.TreeProblem(gen.TreeConfig{
			N:       4 + int(rawN)%28,
			Trees:   1 + int(rawR)%3,
			Demands: 1 + int(rawM)%16,
			Unit:    true,
		}, rng)
		eps := 0.05 + float64(rawEps%80)/100.0
		res, err := solve(p, "tree-unit", Options{Epsilon: eps, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		if verify.Solution(p, res.Selected) != nil {
			return false
		}
		return res.CertifiedRatio <= res.Bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLineUnitPropertyBased mirrors the tree property test for lines with
// windows.
func TestLineUnitPropertyBased(t *testing.T) {
	f := func(seed int64, rawN, rawR, rawM uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.LineProblem(gen.LineConfig{
			Slots:     6 + int(rawN)%40,
			Resources: 1 + int(rawR)%3,
			Demands:   1 + int(rawM)%12,
			Unit:      true,
		}, rng)
		res, err := solve(p, "line-unit", Options{Epsilon: 0.25, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		if verify.Solution(p, res.Selected) != nil {
			return false
		}
		return res.CertifiedRatio <= res.Bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestArbitraryPropertyBased covers the combined algorithm with random
// height mixes and capacities.
func TestArbitraryPropertyBased(t *testing.T) {
	f := func(seed int64, rawN, rawM uint8, withCaps bool) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := gen.TreeConfig{
			N:       6 + int(rawN)%20,
			Trees:   2,
			Demands: 2 + int(rawM)%12,
			HMin:    0.1, HMax: 1.0,
		}
		if withCaps {
			cfg.Capacity = 1.5
			cfg.CapJitter = 0.4
		}
		p := gen.TreeProblem(cfg, rng)
		res, err := solve(p, "arbitrary", Options{Epsilon: 0.25, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		if verify.Solution(p, res.Selected) != nil {
			return false
		}
		return res.Profit >= 0 && res.CertifiedRatio <= res.Bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := gen.TreeProblem(gen.TreeConfig{N: 16, Trees: 2, Demands: 10, Unit: true}, rng)
	// Tight epsilon: more stages, tighter λ.
	tight, err := solve(p, "tree-unit", Options{Epsilon: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := solve(p, "tree-unit", Options{Epsilon: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Lambda <= loose.Lambda {
		t.Fatalf("λ(ε=0.01)=%g should exceed λ(ε=0.9)=%g", tight.Lambda, loose.Lambda)
	}
	if tight.Lambda < 0.99 {
		t.Fatalf("λ=%g < 1-ε for ε=0.01", tight.Lambda)
	}
	for _, r := range []*Result{tight, loose} {
		if err := verify.Solution(p, r.Selected); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSingleDemandProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := gen.TreeProblem(gen.TreeConfig{N: 8, Trees: 1, Demands: 1, Unit: true}, rng)
	res, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("single unconflicted demand must be scheduled, got %d", len(res.Selected))
	}
	d, err := solveDist(p, "dist-unit", Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Selected) != 1 {
		t.Fatal("distributed single-demand run failed to schedule")
	}
}
