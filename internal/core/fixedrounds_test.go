package core

import (
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/model"
	"treesched/internal/verify"
)

func TestFixedRoundsModeRunsWithoutAggregations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 12 + rng.Intn(20), Trees: 1 + rng.Intn(2), Demands: 4 + rng.Intn(12), Unit: true,
		}, rng)
		d, err := solveDist(p, "dist-unit", Options{Epsilon: 0.25, Seed: uint64(trial), FixedRounds: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d.Net.Aggregations != 0 {
			t.Fatalf("trial %d: fixed schedule used %d aggregations", trial, d.Net.Aggregations)
		}
		if err := verify.Solution(p, d.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The certificate machinery still holds (λ-satisfaction was
		// verified inside; the ratio must respect the bound).
		if d.CertifiedRatio > d.Bound+1e-6 {
			t.Fatalf("trial %d: certified ratio %.3f > bound %.3f", trial, d.CertifiedRatio, d.Bound)
		}
	}
}

func TestFixedRoundsDeterministicCost(t *testing.T) {
	// The whole point of the fixed schedule: the round count is a
	// function of the schedule alone, so two problems with identical
	// shape parameters (groups, profit spread, instance count) cost
	// identical rounds regardless of the demands drawn.
	rng := rand.New(rand.NewSource(2))
	p := gen.TreeProblem(gen.TreeConfig{N: 16, Trees: 2, Demands: 8, Unit: true}, rng)
	a, err := solveDist(p, "dist-unit", Options{Epsilon: 0.25, Seed: 1, FixedRounds: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveDist(p, "dist-unit", Options{Epsilon: 0.25, Seed: 99, FixedRounds: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Net.Rounds != b.Net.Rounds {
		t.Fatalf("fixed schedule rounds differ across seeds: %d vs %d", a.Net.Rounds, b.Net.Rounds)
	}
}

func TestFixedRoundsRejectsSingleStage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := gen.LineProblem(gen.LineConfig{Slots: 12, Resources: 1, Demands: 4, Unit: true}, rng)
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSingleStageSchedule(m, 0.2)
	if sched.FixedSteps(m) != 0 {
		t.Fatal("single-stage schedule must not claim a fixed step bound")
	}
}

func TestFixedRoundsNarrow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := gen.TreeProblem(gen.TreeConfig{
		N: 14, Trees: 2, Demands: 8, HMin: 0.25, HMax: 0.5,
	}, rng)
	d, err := solveDist(p, "dist-narrow", Options{Epsilon: 0.25, Seed: 2, FixedRounds: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Net.Aggregations != 0 {
		t.Fatal("fixed narrow run used aggregations")
	}
	if err := verify.Solution(p, d.Selected); err != nil {
		t.Fatal(err)
	}
}
