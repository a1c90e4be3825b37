package core

import (
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/verify"
)

// TestLargeInstanceCountUsesImplicitPath pushes past the implicit
// threshold (many windowed instances) and checks the pipeline end to end.
func TestLargeInstanceCountUsesImplicitPath(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload")
	}
	rng := rand.New(rand.NewSource(1))
	p := gen.LineProblem(gen.LineConfig{
		Slots: 120, Resources: 3, Demands: 150, Unit: true, MaxProc: 10, Slack: 20,
	}, rng)
	insts := p.Expand()
	if len(insts) <= implicitThreshold {
		t.Fatalf("workload too small to exercise the implicit path: %d instances", len(insts))
	}
	res, err := solve(p, "line-unit", Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Solution(p, res.Selected); err != nil {
		t.Fatal(err)
	}
	if res.CertifiedRatio > res.Bound+1e-6 {
		t.Fatalf("certified ratio %.3f > bound %.3f at scale", res.CertifiedRatio, res.Bound)
	}
	t.Logf("%d instances, %d scheduled, certified ratio %.3f",
		len(insts), len(res.Selected), res.CertifiedRatio)
}

// TestImplicitExplicitPhase1Agree pins determinism near the implicit
// threshold: the same seed must reproduce the same selection. (The
// explicit/implicit MIS equivalence itself is proved per-call in
// internal/mis; the large test above exercises the implicit framework
// path end to end.)
func TestImplicitExplicitPhase1Agree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := gen.LineProblem(gen.LineConfig{
		Slots: 80, Resources: 2, Demands: 90, Unit: true, MaxProc: 8, Slack: 16,
	}, rng)
	a, err := solve(p, "line-unit", Options{Epsilon: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solve(p, "line-unit", Options{Epsilon: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !SameSelection(a, b) {
		t.Fatal("repeat run differs")
	}
}

func BenchmarkLineUnitLargeImplicit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := gen.LineProblem(gen.LineConfig{
		Slots: 160, Resources: 4, Demands: 200, Unit: true, MaxProc: 12, Slack: 24,
	}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(p, "line-unit", Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
