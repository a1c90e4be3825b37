package lp

import (
	"math"
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/model"
)

func treeModel(t testing.TB, seed int64, unit bool) *model.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := gen.TreeConfig{N: 20, Trees: 2, Demands: 12, Unit: unit}
	if !unit {
		cfg.HMin, cfg.HMax = 0.05, 0.5 // narrow
	}
	m, err := model.Build(gen.TreeProblem(cfg, rng), model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRaiseMakesConstraintTight(t *testing.T) {
	rules := map[string]struct {
		r    Rule
		unit bool
	}{
		"unit":        {Unit{}, true},
		"narrow":      {Narrow{}, false},
		"capacitated": {Capacitated{}, false},
	}
	for name, tc := range rules {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				m := treeModel(t, seed, tc.unit)
				d := NewDuals(m)
				rng := rand.New(rand.NewSource(seed))
				// Raise a few random instances and check tightness.
				for k := 0; k < 6 && k < len(m.Insts); k++ {
					i := int32(rng.Intn(len(m.Insts)))
					before := LHS(tc.r, m, d, i)
					delta := Raise(tc.r, m, d, i)
					after := LHS(tc.r, m, d, i)
					p := m.Insts[i].Profit
					if before < p-Tol {
						if delta <= 0 {
							t.Fatalf("unsatisfied instance %d raised by δ=%g", i, delta)
						}
						if math.Abs(after-p) > 1e-6 {
							t.Fatalf("after raise LHS=%g != p=%g", after, p)
						}
					} else if delta != 0 {
						t.Fatalf("satisfied instance %d raised by δ=%g", i, delta)
					}
					// Raising never loosens other constraints.
					for j := int32(0); int(j) < len(m.Insts); j++ {
						if Slack(tc.r, m, d, j) > m.Insts[j].Profit+Tol {
							t.Fatalf("slack of %d exceeds profit after raise", j)
						}
					}
				}
			}
		})
	}
}

func TestUnitRaiseDeltaFormula(t *testing.T) {
	m := treeModel(t, 3, true)
	d := NewDuals(m)
	r := Unit{}
	i := int32(0)
	s := Slack(r, m, d, i)
	delta := Raise(r, m, d, i)
	want := s / float64(m.Pi.RowLen(i)+1)
	if math.Abs(delta-want) > 1e-12 {
		t.Fatalf("δ=%g want s/(|π|+1)=%g", delta, want)
	}
	if got := d.Alpha[m.Insts[i].Demand]; math.Abs(got-delta) > 1e-12 {
		t.Fatalf("α=%g want %g", got, delta)
	}
	for _, e := range m.Pi.Row(i) {
		if math.Abs(d.Beta[e]-delta) > 1e-12 {
			t.Fatalf("β[%d]=%g want %g", e, d.Beta[e], delta)
		}
	}
}

func TestNarrowRaiseBetaIncrement(t *testing.T) {
	m := treeModel(t, 4, false)
	d := NewDuals(m)
	r := Narrow{}
	i := int32(0)
	delta := Raise(r, m, d, i)
	k := float64(m.Pi.RowLen(i))
	for _, e := range m.Pi.Row(i) {
		if math.Abs(d.Beta[e]-2*k*delta) > 1e-12 {
			t.Fatalf("β[%d]=%g want 2|π|δ=%g", e, d.Beta[e], 2*k*delta)
		}
	}
}

func TestDualObjectiveMatchesManualSum(t *testing.T) {
	m := treeModel(t, 5, true)
	d := NewDuals(m)
	r := Unit{}
	for i := int32(0); int(i) < len(m.Insts); i++ {
		Raise(r, m, d, i)
	}
	manual := 0.0
	for _, a := range d.Alpha {
		manual += a
	}
	for e, b := range d.Beta {
		manual += m.Cap[e] * b
	}
	if got := DualObjective(r, m, d); math.Abs(got-manual) > 1e-9 {
		t.Fatalf("objective %g want %g", got, manual)
	}
}

func TestObjectiveIncreaseBoundedPerRaise(t *testing.T) {
	// Each raise increases the dual objective by at most perRaise·δ — the
	// inequality behind Lemma 3.1 / 6.1: a unit raise moves α and ≤ ∆
	// β's by δ; a narrow raise moves α by δ and ≤ ∆ β's by 2∆δ; a
	// capacitated one moves each of those β's by 2∆·cap(e)·δ in its
	// pre-multiplied form, cap(e) at most the largest capacity of an edge
	// some path crosses.
	capacitated := func(t *testing.T) *model.Model {
		rng := rand.New(rand.NewSource(6))
		p := gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 2, Demands: 12, HMin: 0.05, HMax: 0.5, Capacity: 1.5, CapJitter: 0.4}, rng)
		m, err := model.Build(p, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		r        Rule
		m        *model.Model
		perRaise func(m *model.Model) float64
	}{
		{Unit{}, treeModel(t, 6, true), func(m *model.Model) float64 { return float64(m.Delta + 1) }},
		{Narrow{}, treeModel(t, 6, false), func(m *model.Model) float64 { return float64(2*m.Delta*m.Delta + 1) }},
		{Capacitated{}, capacitated(t), func(m *model.Model) float64 {
			maxCap := 0.0
			for _, e := range m.Paths.Data {
				maxCap = max(maxCap, m.Cap[e])
			}
			return 2*float64(m.Delta*m.Delta)*maxCap + 1
		}},
	} {
		m := tc.m
		d := NewDuals(m)
		bound := tc.perRaise(m)
		for i := int32(0); int(i) < len(m.Insts); i++ {
			before := DualObjective(tc.r, m, d)
			delta := Raise(tc.r, m, d, i)
			after := DualObjective(tc.r, m, d)
			if after-before > bound*delta+1e-9 {
				t.Fatalf("%T: objective jumped %g > %g·δ (δ=%g)",
					tc.r, after-before, bound, delta)
			}
		}
	}
}

func TestVerifyLambdaSatisfied(t *testing.T) {
	m := treeModel(t, 7, true)
	d := NewDuals(m)
	r := Unit{}
	if err := VerifyLambdaSatisfied(r, m, d, 1.0); err == nil {
		t.Fatal("zero duals cannot be 1-satisfied")
	}
	for i := int32(0); int(i) < len(m.Insts); i++ {
		Raise(r, m, d, i)
	}
	// After raising every instance once in order, every constraint was
	// tight at its own raise and only grew after, so λ=1 holds.
	if err := VerifyLambdaSatisfied(r, m, d, 1.0); err != nil {
		t.Fatal(err)
	}
}

func TestSatisfiedThreshold(t *testing.T) {
	m := treeModel(t, 8, true)
	d := NewDuals(m)
	r := Unit{}
	i := int32(0)
	if Satisfied(r, m, d, i, 0.5) {
		t.Fatal("zero duals satisfy nothing")
	}
	if !Satisfied(r, m, d, i, 0) {
		t.Fatal("everything is 0-satisfied")
	}
	Raise(r, m, d, i)
	if !Satisfied(r, m, d, i, 1.0) {
		t.Fatal("raised instance must be 1-satisfied")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := treeModel(t, 9, true)
	d := NewDuals(m)
	r := Unit{}
	Raise(r, m, d, 0)
	c := d.Clone()
	c.Alpha[0] += 100
	c.Beta[0] += 100
	if d.Alpha[0] == c.Alpha[0] || d.Beta[0] == c.Beta[0] {
		t.Fatal("Clone shares storage")
	}
}

func TestCapacitatedReducesToNarrowOnUnitCaps(t *testing.T) {
	// With all capacities 1, Capacitated and Narrow must agree exactly.
	m := treeModel(t, 10, false)
	d1 := NewDuals(m)
	d2 := NewDuals(m)
	n, c := Narrow{}, Capacitated{}
	for i := int32(0); int(i) < len(m.Insts); i++ {
		dn := Raise(n, m, d1, i)
		dc := Raise(c, m, d2, i)
		if math.Abs(dn-dc) > 1e-12 {
			t.Fatalf("δ differs on unit caps: %g vs %g", dn, dc)
		}
	}
	for e := range d1.Beta {
		if math.Abs(d1.Beta[e]-d2.Beta[e]) > 1e-9 {
			t.Fatalf("β[%d] differs: %g vs %g", e, d1.Beta[e], d2.Beta[e])
		}
	}
}

// TestLHSReadsBetaThroughAt holds every rule's LHS to the storage
// contract the distributed protocol relies on: β copies kept in any slot
// order, read through at, give the bits the global duals give.
func TestLHSReadsBetaThroughAt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	capped, err := model.Build(gen.TreeProblem(gen.TreeConfig{
		N: 20, Trees: 2, Demands: 12, HMin: 0.05, HMax: 0.5, Capacity: 1.5, CapJitter: 0.4,
	}, rng), model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		r Rule
		m *model.Model
	}{{Unit{}, treeModel(t, 11, true)}, {UnitNoAlpha{}, treeModel(t, 12, true)}, {Narrow{}, capped}, {Capacitated{}, capped}} {
		m, d := tc.m, NewDuals(tc.m)
		for i := int32(0); int(i) < len(m.Insts); i += 2 {
			Raise(tc.r, m, d, i)
		}
		for i := int32(0); int(i) < len(m.Insts); i++ {
			path := m.Paths.Row(i)
			local := make([]float64, 2*len(path)+1)
			at := make([]int32, len(path))
			for k, slot := range rng.Perm(len(local))[:len(path)] {
				at[k] = int32(slot)
				local[slot] = d.Beta[path[k]]
			}
			want := LHS(tc.r, m, d, i)
			got := tc.r.LHS(m, i, d.Alpha[m.Insts[i].Demand], local, at)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%T: instance %d: LHS over copies %v, over the global duals %v", tc.r, i, got, want)
			}
		}
	}
}
