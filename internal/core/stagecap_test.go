package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/model"
)

// scheduleModel is a small built model: NewSchedule reads only its group
// count and profit spread.
func scheduleModel(t *testing.T) *model.Model {
	t.Helper()
	p := gen.TreeProblem(gen.TreeConfig{N: 16, Trees: 2, Demands: 8, Unit: true}, rand.New(rand.NewSource(1)))
	m, err := model.Build(p, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// referenceThresholds is NewSchedule's formula written the plain way: b
// is the least j with ξ^j ≤ ε, and stage j targets 1−ξ^j.
func referenceThresholds(xi, eps float64) []float64 {
	b := 1
	for math.Pow(xi, float64(b)) > eps {
		b++
	}
	var th []float64
	for j := 1; j <= b; j++ {
		th = append(th, 1-math.Pow(xi, float64(j)))
	}
	return th
}

// TestNewScheduleThresholdsBitIdentical pins NewSchedule's stage count,
// every threshold and λ to the float bits of the plain formula over 420
// (ξ, ε) pairs: the unit rule's ξ for ∆ = 1..10 and the narrow rule's for
// ∆ = 1..6 over ten heights.
func TestNewScheduleThresholdsBitIdentical(t *testing.T) {
	m := scheduleModel(t)
	var xis []float64
	for delta := 1; delta <= 10; delta++ {
		xis = append(xis, UnitXi(delta))
	}
	for delta := 1; delta <= 6; delta++ {
		for _, h := range []float64{0.5, 0.4, 0.3, 0.25, 0.2, 0.1, 0.05, 0.02, 0.01, 0.001} {
			xis = append(xis, NarrowXi(delta, h))
		}
	}
	pairs := 0
	for _, xi := range xis {
		for _, eps := range []float64{0.5, 0.25, 0.1, 0.05, 0.01, 0.001} {
			pairs++
			want := referenceThresholds(xi, eps)
			s := NewSchedule(m, xi, eps)
			if s.Stages != len(want) || len(s.Thresholds) != len(want) {
				t.Fatalf("ξ=%v ε=%v: %d stages, %d thresholds; want %d", xi, eps, s.Stages, len(s.Thresholds), len(want))
			}
			for j := range want {
				if math.Float64bits(s.Thresholds[j]) != math.Float64bits(want[j]) {
					t.Fatalf("ξ=%v ε=%v: threshold %d = %v, want %v", xi, eps, j, s.Thresholds[j], want[j])
				}
			}
			if math.Float64bits(s.Lambda) != math.Float64bits(want[len(want)-1]) {
				t.Fatalf("ξ=%v ε=%v: λ = %v, want %v", xi, eps, s.Lambda, want[len(want)-1])
			}
		}
	}
	if pairs != 420 {
		t.Fatalf("%d pairs, want 420", pairs)
	}
}

// TestNewScheduleOneAllocation: at ∆ = 6 and hmin 10⁻⁴ (b = 512,930)
// the thresholds take one allocation, not one per doubling.
func TestNewScheduleOneAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("half a million stages per call")
	}
	m := scheduleModel(t)
	xi := NarrowXi(6, 1e-4)
	var s Schedule
	allocs := testing.AllocsPerRun(1, func() { s = NewSchedule(m, xi, 0.25) })
	if s.Stages != 512_930 {
		t.Fatalf("b = %d, want 512930", s.Stages)
	}
	if allocs != 1 {
		t.Fatalf("NewSchedule allocated %v times, want 1", allocs)
	}
}

// TestNewScheduleRefusesStageBaseOne: ξ = 1 never reaches ε, so
// NewSchedule panics on it rather than loop forever.
func TestNewScheduleRefusesStageBaseOne(t *testing.T) {
	m := scheduleModel(t)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		NewSchedule(m, 1, 0.25)
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("ξ = 1 accepted")
		}
	case <-time.After(time.Second):
		t.Fatal("NewSchedule(ξ = 1) still running after a second")
	}
}

// TestNarrowStageCap: a height whose narrow schedule would pass maxStages
// is refused as an error by all three narrow entry points before any
// stage runs: at 10⁻¹² the schedule would run about 10¹³ stages per
// epoch, and at 10⁻¹⁷ ξ rounds to 1, so ξ^b never reaches ε.
func TestNarrowStageCap(t *testing.T) {
	base := gen.TreeProblem(gen.TreeConfig{N: 8, Trees: 2, Demands: 2, Unit: true}, rand.New(rand.NewSource(4)))
	entries := map[string]func(c *Compiled) error{
		"narrow":      func(c *Compiled) error { _, err := c.NarrowOnly(Options{}); return err },
		"arbitrary":   func(c *Compiled) error { _, err := c.Arbitrary(Options{}); return err },
		"dist-narrow": func(c *Compiled) error { _, err := c.DistributedNarrow(Options{}); return err },
	}
	for _, h := range []float64{1e-12, 1e-17} {
		p := *base
		p.Demands = make([]instance.Demand, len(base.Demands))
		copy(p.Demands, base.Demands)
		for i := range p.Demands {
			p.Demands[i].Height = h
		}
		for name, run := range entries {
			c, err := Compile(&p, 0)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- run(c) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "stages per epoch") {
					t.Fatalf("%s at height %g: err = %v, want the stage-cap refusal", name, h, err)
				}
			case <-time.After(time.Second):
				t.Fatalf("%s at height %g: still running after a second", name, h)
			}
		}
	}
}
