package instance_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
)

func TestRangesAndCommGraph(t *testing.T) {
	p := instance.SmallTreeProblem(t)
	pmin, pmax := p.ProfitRange()
	if pmin != 1 || pmax != 3 {
		t.Fatalf("profit range (%g,%g)", pmin, pmax)
	}
	hmin, hmax := p.HeightRange()
	if hmin != 1 || hmax != 1 || !p.UnitHeight() {
		t.Fatal("height range on unit problem")
	}
	adj := p.CommGraph()
	// Demand 0 shares tree 0 with demand 1 and tree 1 with demand 2.
	if len(adj[0]) != 2 {
		t.Fatalf("processor 0 neighbors: %v", adj[0])
	}
	// Demands 1 and 2 share no resource.
	for _, j := range adj[1] {
		if j == 2 {
			t.Fatal("processors 1 and 2 share no resource but are adjacent")
		}
	}

	// The gen tree and line families, dense and sparse access.
	rng := rand.New(rand.NewSource(11))
	problems := map[string]*instance.Problem{
		"small-tree": p,
		"caterpillar": gen.TreeProblem(gen.TreeConfig{
			N: 64, Trees: 4, Demands: 160, Shape: gen.ShapeCaterpillar, Unit: true, AccessProb: 0.6,
		}, rng),
		"random-tree":  gen.TreeProblem(gen.TreeConfig{N: 40, Trees: 6, Demands: 80, AccessProb: 0.3}, rng),
		"sparse-tree":  gen.TreeProblem(gen.TreeConfig{N: 40, Trees: 16, Demands: 120, AccessCount: 2}, rng),
		"capacitated":  gen.TreeProblem(gen.TreeConfig{N: 32, Trees: 3, Demands: 50, Capacity: 1.6, CapJitter: 0.5}, rng),
		"line":         gen.LineProblem(gen.LineConfig{Slots: 48, Resources: 5, Demands: 90, AccessProb: 0.4}, rng),
		"sparse-line":  gen.LineProblem(gen.LineConfig{Slots: 48, Resources: 24, Demands: 100, AccessCount: 1}, rng),
		"one-resource": gen.LineProblem(gen.LineConfig{Slots: 24, Resources: 1, Demands: 12}, rng),
	}
	for name, p := range problems {
		if err := commGraphContract(p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// commGraphContract checks CommGraph against a brute-force oracle:
// processors i ≠ j are adjacent iff their access sets intersect. Each row
// must be ascending, without the processor itself or duplicates, and
// capacity-limited to its length.
func commGraphContract(p *instance.Problem) error {
	adj := p.CommGraph()
	if len(adj) != len(p.Demands) {
		return fmt.Errorf("%d rows for %d processors", len(adj), len(p.Demands))
	}
	for i, row := range adj {
		for k, j := range row {
			switch {
			case int(j) == i:
				return fmt.Errorf("processor %d lists itself: %v", i, row)
			case k > 0 && row[k-1] >= j:
				return fmt.Errorf("processor %d: row not strictly ascending: %v", i, row)
			}
		}
		if cap(row) != len(row) {
			return fmt.Errorf("processor %d: row has spare capacity %d", i, cap(row)-len(row))
		}
		var want []int32
		for j := range p.Demands {
			if j != i && slices.ContainsFunc(p.Demands[i].Access, func(q int) bool {
				return slices.Contains(p.Demands[j].Access, q)
			}) {
				want = append(want, int32(j))
			}
		}
		if !slices.Equal(row, want) {
			return fmt.Errorf("processor %d: neighbors %v, want %v", i, row, want)
		}
	}
	return nil
}
