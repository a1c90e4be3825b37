package core

import (
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/verify"
)

func TestSequentialLineEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 16 + rng.Intn(32), Resources: 1 + rng.Intn(3), Demands: 4 + rng.Intn(14),
			Unit: true, MaxProc: 8,
		}, rng)
		res, err := solve(p, "seq-line", Options{CollectTrace: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.Solution(p, res.Selected); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Bound != 2 {
			t.Fatalf("trial %d: bound %g want 2", trial, res.Bound)
		}
		if res.CertifiedRatio > 2+1e-6 {
			t.Fatalf("trial %d: certified ratio %.3f > 2", trial, res.CertifiedRatio)
		}
		if err := CheckInterference(res.Model, res.Trace); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSequentialLineAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 14, Resources: 1 + rng.Intn(2), Demands: 4 + rng.Intn(6),
			Unit: true, MaxProc: 5,
		}, rng)
		res, err := solve(p, "seq-line", Options{})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := solve(p, "exact", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Profit > 0 && opt.Profit/res.Profit > 2+1e-9 {
			t.Fatalf("trial %d: true ratio %.3f > 2", trial, opt.Profit/res.Profit)
		}
		if opt.Profit > res.DualUB+1e-6 {
			t.Fatalf("trial %d: OPT above dual UB", trial)
		}
	}
}

func TestSequentialLineMatchesIntervalDPOnTightWindows(t *testing.T) {
	// With one resource and tight windows the DP optimum is available;
	// the 2-approximation must be within factor 2 of it (usually equal on
	// easy instances, but never above).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		p := tightLineProblem(rng, 20, 8)
		seq, err := solve(p, "seq-line", Options{})
		if err != nil {
			t.Fatal(err)
		}
		dp, err := ExactSingleLineUnit(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Profit > dp.Profit+1e-9 {
			t.Fatalf("trial %d: 2-approx beat the optimum", trial)
		}
		if dp.Profit > 2*seq.Profit+1e-9 {
			t.Fatalf("trial %d: ratio %.3f above 2", trial, dp.Profit/seq.Profit)
		}
	}
}

func TestSequentialLineRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tp := gen.TreeProblem(gen.TreeConfig{N: 8, Trees: 1, Demands: 3, Unit: true}, rng)
	if _, err := solve(tp, "seq-line", Options{}); err == nil {
		t.Fatal("accepted tree problem")
	}
	nu := gen.LineProblem(gen.LineConfig{Slots: 10, Resources: 1, Demands: 3, HMin: 0.3, HMax: 0.5}, rng)
	if _, err := solve(nu, "seq-line", Options{}); err == nil {
		t.Fatal("accepted non-unit heights")
	}
}
