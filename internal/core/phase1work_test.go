package core

import (
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/model"
)

// countingRule counts the LHS evaluations made through it. lp.Raise
// evaluates its slack through the same method, so the count holds one
// evaluation per raise besides Phase1's own satisfaction reads.
type countingRule struct {
	lp.Rule
	n *int
}

func (r countingRule) LHS(m *model.Model, i int32, alpha float64, beta []float64, at []int32) float64 {
	*r.n++
	return r.Rule.LHS(m, i, alpha, beta, at)
}

// phase1Work runs v's Phase1 on m under seed 1 and returns its own LHS
// evaluations, the satisfaction reads without the slack read of each
// raise, and its raises.
func phase1Work(t *testing.T, m *model.Model, v variant) (evals, raises int) {
	t.Helper()
	var reads int
	_, stack, err := Phase1(m, countingRule{v.rule, &reads}, v.sched, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stack {
		raises += len(e.Set)
	}
	return reads - raises, raises
}

// sessionShaped is the problem of one session-churn resolve: 400 unit
// demands on three random 64-vertex trees.
func sessionShaped(seed int64) *instance.Problem {
	rng := rand.New(rand.NewSource(seed))
	return gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 3, Demands: 400, Shape: gen.ShapeRandom, Unit: true, AccessProb: 0.5}, rng)
}

// TestPhase1LHSEvaluationBudget pins Phase1's work on a session-shaped
// tree-unit solve: each group member is evaluated at its epoch's start,
// when its queued stage comes up, and after each step it is active in,
// so the count follows the raises and the active instances, not the
// stages times the bucket.
func TestPhase1LHSEvaluationBudget(t *testing.T) {
	c, err := Compile(sessionShaped(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Model()
	if err != nil {
		t.Fatal(err)
	}
	v := unitVariant("tree-unit", m, 0.25)
	const budget = 1100
	evals, raises := phase1Work(t, m, v)
	t.Logf("%d instances, %d epochs × %d stages: %d LHS evaluations, %d raises", len(m.Insts), v.sched.Epochs, v.sched.Stages, evals, raises)
	if evals > budget {
		t.Errorf("%d LHS evaluations, budget %d", evals, budget)
	}
}

// TestPhase1LHSEvaluationsFlatInStages holds a narrow solve's work flat
// as h_min shrinks: one demand's height goes from 10⁻² to 10⁻⁴, which
// multiplies the stages per epoch by about 100, and the LHS evaluations
// must not grow.
func TestPhase1LHSEvaluationsFlatInStages(t *testing.T) {
	var last int
	for k, h := range []float64{1e-2, 1e-3, 1e-4} {
		rng := rand.New(rand.NewSource(3))
		p := gen.TreeProblem(gen.TreeConfig{N: 24, Trees: 2, Demands: 40, HMin: 0.05, HMax: 0.5}, rng)
		p.Demands[0].Height = h
		c, err := Compile(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Model()
		if err != nil {
			t.Fatal(err)
		}
		v, err := narrowVariant(p, m, 0.25, "test")
		if err != nil {
			t.Fatal(err)
		}
		evals, raises := phase1Work(t, m, v)
		t.Logf("h_min %g: %d stages per epoch, %d LHS evaluations, %d raises", h, v.sched.Stages, evals, raises)
		if k > 0 && evals > last {
			t.Errorf("h_min %g: %d LHS evaluations, more than the %d at the larger h_min", h, evals, last)
		}
		last = evals
	}
}
