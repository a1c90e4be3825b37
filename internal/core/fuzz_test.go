package core

import (
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/verify"
)

// FuzzSolveVerify fuzzes generator configurations and seeds, runs the
// combined arbitrary-height solver (which dispatches every problem kind
// and height regime), and asserts the two invariants every run must
// satisfy regardless of workload:
//
//  1. the selection passes the independent feasibility checker, and
//  2. weak duality holds: DualUB ≥ Profit.
//
// Run continuously with:
//
//	go test ./internal/core -run xxx -fuzz FuzzSolveVerify
func FuzzSolveVerify(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(12), uint8(2), uint8(0), false, false, false)
	f.Add(int64(7), uint8(9), uint8(20), uint8(1), uint8(2), true, true, false)
	f.Add(int64(42), uint8(30), uint8(8), uint8(3), uint8(4), false, false, true)
	f.Add(int64(-3), uint8(5), uint8(5), uint8(1), uint8(5), true, false, true)

	f.Fuzz(func(t *testing.T, seed int64, size, demands, nets, shape uint8, line, unit, capacitated bool) {
		n := 4 + int(size)%28    // 4..31 vertices or slots
		m := 1 + int(demands)%24 // 1..24 demands
		r := 1 + int(nets)%3     // 1..3 networks
		rng := rand.New(rand.NewSource(seed))

		capVal, jitter := 0.0, 0.0
		if capacitated {
			capVal, jitter = 1.5, 0.4
		}
		var p *instance.Problem
		if line {
			p = gen.LineProblem(gen.LineConfig{
				Slots: n, Resources: r, Demands: m, Unit: unit,
				HMin: 0.1, HMax: 1.0, Capacity: capVal, CapJitter: jitter,
			}, rng)
		} else {
			p = gen.TreeProblem(gen.TreeConfig{
				N: n, Trees: r, Demands: m, Unit: unit,
				Shape: gen.TreeShape(int(shape) % 6),
				HMin:  0.1, HMax: 1.0, Capacity: capVal, CapJitter: jitter,
			}, rng)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("generator emitted an invalid problem: %v", err)
		}

		res, err := solve(p, "arbitrary", Options{Epsilon: 0.25, Seed: uint64(seed)})
		if err != nil {
			t.Fatalf("Arbitrary: %v", err)
		}
		if err := verify.Solution(p, res.Selected); err != nil {
			t.Fatalf("infeasible selection: %v", err)
		}
		if res.DualUB+1e-6 < res.Profit {
			t.Fatalf("weak duality violated: DualUB %g < Profit %g", res.DualUB, res.Profit)
		}
		if res.Profit < 0 {
			t.Fatalf("negative profit %g", res.Profit)
		}
	})
}
