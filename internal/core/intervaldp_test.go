package core

import (
	"math"
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/verify"
)

// tightLineProblem draws a single-resource unit-height problem whose
// windows equal the processing times (one instance per demand).
func tightLineProblem(rng *rand.Rand, slots, demands int) *instance.Problem {
	p := &instance.Problem{Kind: instance.KindLine, NumSlots: slots, NumResources: 1}
	for i := 0; i < demands; i++ {
		rho := 1 + rng.Intn(slots/3)
		rt := rng.Intn(slots - rho + 1)
		p.Demands = append(p.Demands, instance.Demand{
			ID: i, Release: rt, Deadline: rt + rho - 1, ProcTime: rho,
			Profit: 1 + rng.Float64()*9, Height: 1, Access: []int{0},
		})
	}
	return p
}

func TestIntervalDPMatchesBranchAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		p := tightLineProblem(rng, 12+rng.Intn(24), 3+rng.Intn(12))
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		dp, err := ExactSingleLineUnit(p)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := solve(p, "exact", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dp.Profit-bb.Profit) > 1e-9 {
			t.Fatalf("trial %d: DP %g vs B&B %g", trial, dp.Profit, bb.Profit)
		}
		if err := verify.Solution(p, dp.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestIntervalDPRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tree := gen.TreeProblem(gen.TreeConfig{N: 6, Trees: 1, Demands: 2, Unit: true}, rng)
	if _, err := ExactSingleLineUnit(tree); err == nil {
		t.Fatal("accepted tree problem")
	}
	multi := gen.LineProblem(gen.LineConfig{Slots: 10, Resources: 2, Demands: 3, Unit: true}, rng)
	if _, err := ExactSingleLineUnit(multi); err == nil {
		t.Fatal("accepted multi-resource problem")
	}
	slack := &instance.Problem{Kind: instance.KindLine, NumSlots: 10, NumResources: 1,
		Demands: []instance.Demand{{ID: 0, Release: 0, Deadline: 5, ProcTime: 2, Profit: 1, Height: 1, Access: []int{0}}}}
	if _, err := ExactSingleLineUnit(slack); err == nil {
		t.Fatal("accepted windowed demand")
	}
	nonUnit := tightLineProblem(rng, 10, 3)
	nonUnit.Demands[0].Height = 0.5
	if _, err := ExactSingleLineUnit(nonUnit); err == nil {
		t.Fatal("accepted non-unit heights")
	}
}

func TestIntervalDPKnownInstance(t *testing.T) {
	// Classic example: three jobs [0,3] p=4, [2,5] p=5, [4,7] p=4 —
	// optimum takes the two outer jobs (profit 8).
	p := &instance.Problem{Kind: instance.KindLine, NumSlots: 8, NumResources: 1,
		Demands: []instance.Demand{
			{ID: 0, Release: 0, Deadline: 3, ProcTime: 4, Profit: 4, Height: 1, Access: []int{0}},
			{ID: 1, Release: 2, Deadline: 5, ProcTime: 4, Profit: 5, Height: 1, Access: []int{0}},
			{ID: 2, Release: 4, Deadline: 7, ProcTime: 4, Profit: 4, Height: 1, Access: []int{0}},
		}}
	dp, err := ExactSingleLineUnit(p)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Profit != 8 || len(dp.Selected) != 2 {
		t.Fatalf("profit %g with %d jobs, want 8 with 2", dp.Profit, len(dp.Selected))
	}
}
