package core

import (
	"math"
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/lp"
	"treesched/internal/model"
)

func TestUnitXiMatchesPaperConstants(t *testing.T) {
	// §5: ξ = 14/15 for trees (∆=6); §7: ξ = 8/9 for lines (∆=3).
	if got := UnitXi(6); math.Abs(got-14.0/15.0) > 1e-15 {
		t.Fatalf("UnitXi(6)=%g want 14/15", got)
	}
	if got := UnitXi(3); math.Abs(got-8.0/9.0) > 1e-15 {
		t.Fatalf("UnitXi(3)=%g want 8/9", got)
	}
}

func TestNarrowXiDoublingGuarantee(t *testing.T) {
	// The kill argument needs 2·ξ·hmin/((1−ξ)(1+∆²)) ≥ 2 — verify the
	// chosen ξ satisfies it across the parameter range.
	for _, delta := range []int{1, 2, 3, 6} {
		for _, hmin := range []float64{0.5, 0.25, 0.1, 0.01} {
			xi := NarrowXi(delta, hmin)
			if xi <= 0 || xi >= 1 {
				t.Fatalf("ξ=%g outside (0,1)", xi)
			}
			growth := 2 * xi * hmin / ((1 - xi) * (1 + float64(delta*delta)))
			if growth < 2-1e-9 {
				t.Fatalf("∆=%d hmin=%g: growth factor %g < 2", delta, hmin, growth)
			}
		}
	}
}

func TestNewScheduleStagesReachEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := gen.TreeProblem(gen.TreeConfig{N: 16, Trees: 2, Demands: 8, Unit: true}, rng)
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.5, 0.25, 0.1, 0.01} {
		s := NewSchedule(m, UnitXi(m.Delta), eps)
		if math.Pow(s.Xi, float64(s.Stages)) > eps {
			t.Fatalf("ε=%g: ξ^b = %g > ε", eps, math.Pow(s.Xi, float64(s.Stages)))
		}
		if s.Stages > 1 && math.Pow(s.Xi, float64(s.Stages-1)) <= eps {
			t.Fatalf("ε=%g: b=%d not minimal", eps, s.Stages)
		}
		if s.Lambda < 1-eps-1e-12 {
			t.Fatalf("ε=%g: λ=%g below 1-ε", eps, s.Lambda)
		}
		// Thresholds are increasing and end at λ.
		for j := 1; j < len(s.Thresholds); j++ {
			if s.Thresholds[j] <= s.Thresholds[j-1] {
				t.Fatal("thresholds not increasing")
			}
		}
		if s.Thresholds[len(s.Thresholds)-1] != s.Lambda {
			t.Fatal("final threshold != λ")
		}
	}
}

func TestNewSchedulePanicsOnBadEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := gen.TreeProblem(gen.TreeConfig{N: 8, Trees: 1, Demands: 3, Unit: true}, rng)
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ε=%g accepted", eps)
				}
			}()
			NewSchedule(m, 14.0/15.0, eps)
		}()
	}
}

func TestPhase2CoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 12 + rng.Intn(20), Trees: 1 + rng.Intn(2), Demands: 5 + rng.Intn(15), Unit: true,
		}, rng)
		m, err := model.Build(p, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sched := NewSchedule(m, UnitXi(m.Delta), 0.25)
		duals, stack, err := Phase1(m, lp.Unit{}, sched, uint64(trial), nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = duals
		sel := Phase2(m, stack)
		if err := CheckPhase2Coverage(m, stack, sel); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckRaisedSetsIndependent(m, stack); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
