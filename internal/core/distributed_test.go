package core

import (
	"math"
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/verify"
)

func TestDistributedMatchesCentralizedTreeUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 10 + rng.Intn(25), Trees: 1 + rng.Intn(3), Demands: 4 + rng.Intn(16), Unit: true,
		}, rng)
		seed := uint64(100 + trial)
		central, err := solve(p, "tree-unit", Options{Epsilon: 0.25, Seed: seed})
		if err != nil {
			t.Fatalf("trial %d central: %v", trial, err)
		}
		distrib, err := solveDist(p, "dist-unit", Options{Epsilon: 0.25, Seed: seed})
		if err != nil {
			t.Fatalf("trial %d distributed: %v", trial, err)
		}
		if !SameSelection(central, distrib.Result) {
			t.Fatalf("trial %d: selections differ: central %v vs distributed %v",
				trial, central.Selected, distrib.Selected)
		}
		if math.Abs(central.Profit-distrib.Profit) > 1e-9 {
			t.Fatalf("trial %d: profits differ: %g vs %g", trial, central.Profit, distrib.Profit)
		}
		if math.Abs(central.DualUB-distrib.DualUB) > 1e-6*(1+central.DualUB) {
			t.Fatalf("trial %d: dual objectives differ: %g vs %g", trial, central.DualUB, distrib.DualUB)
		}
		if err := verify.Solution(p, distrib.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if distrib.Net.Rounds == 0 || distrib.Net.Messages == 0 {
			t.Fatalf("trial %d: no communication recorded: %+v", trial, distrib.Net)
		}
	}
}

func TestDistributedMatchesCentralizedLineUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 16 + rng.Intn(24), Resources: 1 + rng.Intn(3), Demands: 4 + rng.Intn(10), Unit: true,
		}, rng)
		seed := uint64(trial)
		central, err := solve(p, "line-unit", Options{Epsilon: 0.25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		distrib, err := solveDist(p, "dist-unit", Options{Epsilon: 0.25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !SameSelection(central, distrib.Result) {
			t.Fatalf("trial %d: selections differ", trial)
		}
	}
}

func TestDistributedNarrowMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 10 + rng.Intn(15), Trees: 1 + rng.Intn(2), Demands: 4 + rng.Intn(10),
			HMin: 0.2, HMax: 0.5,
		}, rng)
		seed := uint64(trial)
		central, err := solve(p, "narrow", Options{Epsilon: 0.25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		distrib, err := solveDist(p, "dist-narrow", Options{Epsilon: 0.25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !SameSelection(central, distrib.Result) {
			t.Fatalf("trial %d: narrow selections differ", trial)
		}
		if err := verify.Solution(p, distrib.Selected); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistributedNarrowCapacitated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := gen.TreeProblem(gen.TreeConfig{
		N: 12, Trees: 2, Demands: 8, HMin: 0.2, HMax: 0.45,
		Capacity: 1.5, CapJitter: 0.4,
	}, rng)
	seed := uint64(9)
	central, err := solve(p, "narrow", Options{Epsilon: 0.25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	distrib, err := solveDist(p, "dist-narrow", Options{Epsilon: 0.25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !SameSelection(central, distrib.Result) {
		t.Fatal("capacitated narrow selections differ")
	}
	if err := verify.Solution(p, distrib.Selected); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedRoundsScaleWithLogN(t *testing.T) {
	// Not a strict bound, but rounds should stay polylogarithmic-ish:
	// quadrupling n should far less than quadruple the rounds.
	rng := rand.New(rand.NewSource(5))
	rounds := func(n int) int {
		p := gen.TreeProblem(gen.TreeConfig{N: n, Trees: 2, Demands: 20, Unit: true}, rng)
		d, err := solveDist(p, "dist-unit", Options{Epsilon: 0.25, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return d.Net.Rounds
	}
	r16, r256 := rounds(16), rounds(256)
	if r256 > 16*r16 {
		t.Fatalf("rounds grew superlinearly with n: %d (n=16) vs %d (n=256)", r16, r256)
	}
	t.Logf("rounds: n=16 → %d, n=256 → %d", r16, r256)
}
