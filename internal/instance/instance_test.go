package instance

import (
	"encoding/json"
	"math/rand"
	"testing"

	"treesched/internal/graph"
)

// smallTreeProblem builds a 2-tree problem with 3 demands.
func smallTreeProblem(t *testing.T) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	p := &Problem{
		Kind:        KindTree,
		NumVertices: 10,
		Trees:       []*graph.Tree{graph.RandomTree(10, rng), graph.RandomTree(10, rng)},
		Demands: []Demand{
			{ID: 0, U: 0, V: 5, Profit: 3, Height: 1, Access: []int{0, 1}},
			{ID: 1, U: 2, V: 7, Profit: 1, Height: 1, Access: []int{0}},
			{ID: 2, U: 4, V: 9, Profit: 2, Height: 1, Access: []int{1}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func smallLineProblem(t *testing.T) *Problem {
	t.Helper()
	p := &Problem{
		Kind:         KindLine,
		NumSlots:     12,
		NumResources: 2,
		Demands: []Demand{
			{ID: 0, Release: 0, Deadline: 5, ProcTime: 3, Profit: 2, Height: 1, Access: []int{0, 1}},
			{ID: 1, Release: 4, Deadline: 8, ProcTime: 5, Profit: 1, Height: 0.5, Access: []int{1}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidateRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := graph.RandomTree(5, rng)
	base := func() *Problem {
		return &Problem{
			Kind: KindTree, NumVertices: 5, Trees: []*graph.Tree{tr},
			Demands: []Demand{{ID: 0, U: 0, V: 1, Profit: 1, Height: 1, Access: []int{0}}},
		}
	}
	mutations := map[string]func(*Problem){
		"no trees":        func(p *Problem) { p.Trees = nil },
		"bad id":          func(p *Problem) { p.Demands[0].ID = 7 },
		"zero profit":     func(p *Problem) { p.Demands[0].Profit = 0 },
		"height zero":     func(p *Problem) { p.Demands[0].Height = 0 },
		"height over 1":   func(p *Problem) { p.Demands[0].Height = 1.5 },
		"no access":       func(p *Problem) { p.Demands[0].Access = nil },
		"access range":    func(p *Problem) { p.Demands[0].Access = []int{3} },
		"dup access":      func(p *Problem) { p.Demands[0].Access = []int{0, 0} },
		"equal endpoints": func(p *Problem) { p.Demands[0].V = p.Demands[0].U },
		"endpoint range":  func(p *Problem) { p.Demands[0].V = 99 },
		"bad capacity": func(p *Problem) {
			p.Capacities = [][]float64{{0, 1, 1, 1, -1}}
		},
		"capacity rows": func(p *Problem) {
			p.Capacities = [][]float64{{1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}}
		},
		"total profit overflows": func(p *Problem) {
			p.Demands[0].Profit = 1.5e308
			p.Demands = append(p.Demands, Demand{ID: 1, U: 1, V: 2, Profit: 1.5e308, Height: 1, Access: []int{0}})
		},
	}
	for name, mutate := range mutations {
		p := base()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Line-specific rejections.
	lp := &Problem{
		Kind: KindLine, NumSlots: 10, NumResources: 1,
		Demands: []Demand{{ID: 0, Release: 2, Deadline: 6, ProcTime: 9, Profit: 1, Height: 1, Access: []int{0}}},
	}
	if err := lp.Validate(); err == nil {
		t.Error("window shorter than proctime accepted")
	}
	lp.Demands[0].ProcTime = 0
	if err := lp.Validate(); err == nil {
		t.Error("zero proctime accepted")
	}
	lp.Demands[0] = Demand{ID: 0, Release: 5, Deadline: 2, ProcTime: 1, Profit: 1, Height: 1, Access: []int{0}}
	if err := lp.Validate(); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestExpandTree(t *testing.T) {
	p := smallTreeProblem(t)
	insts := p.Expand()
	if len(insts) != 4 { // demand 0 twice, demands 1 and 2 once
		t.Fatalf("expanded %d instances, want 4", len(insts))
	}
	for i, d := range insts {
		if int(d.ID) != i {
			t.Fatalf("instance %d has id %d", i, d.ID)
		}
	}
	if insts[0].Net != 0 || insts[1].Net != 1 {
		t.Fatal("access order not preserved")
	}
}

func TestExpandLineWindows(t *testing.T) {
	p := smallLineProblem(t)
	insts := p.Expand()
	// Demand 0: starts 0..3 on two resources = 8; demand 1: start 4 only, one resource.
	if len(insts) != 9 {
		t.Fatalf("expanded %d instances, want 9", len(insts))
	}
	for _, d := range insts {
		dem := p.Demands[d.Demand]
		if int(d.U) < dem.Release || int(d.V) > dem.Deadline {
			t.Fatalf("instance %v outside window [%d,%d]", d, dem.Release, dem.Deadline)
		}
		if int(d.Len()) != dem.ProcTime {
			t.Fatalf("instance length %d, want %d", d.Len(), dem.ProcTime)
		}
	}
}

func TestPathEdgesAndOverlap(t *testing.T) {
	p := smallTreeProblem(t)
	insts := p.Expand()
	for _, d := range insts {
		edges := p.PathEdges(d)
		if len(edges) != p.Trees[d.Net].Dist(int(d.U), int(d.V)) {
			t.Fatalf("path length mismatch for %v", d)
		}
		per := p.NumVertices
		for _, e := range edges {
			if int(e)/per != int(d.Net) {
				t.Fatalf("edge %d not in network %d's range", e, d.Net)
			}
		}
	}
	// Cross-network instances never overlap.
	if p.Overlap(insts[0], insts[1]) {
		t.Fatal("instances on different trees reported overlapping")
	}
	// Same-demand instances conflict regardless.
	if !p.Conflict(insts[0], insts[1]) {
		t.Fatal("same-demand instances must conflict")
	}
}

func TestLineOverlap(t *testing.T) {
	p := smallLineProblem(t)
	a := Inst{ID: 0, Demand: 0, Net: 0, U: 2, V: 4, Profit: 1, Height: 1}
	b := Inst{ID: 1, Demand: 1, Net: 0, U: 4, V: 8, Profit: 1, Height: 1}
	c := Inst{ID: 2, Demand: 1, Net: 0, U: 5, V: 8, Profit: 1, Height: 1}
	if !p.Overlap(a, b) {
		t.Fatal("touching intervals [2,4],[4,8] share slot 4")
	}
	if p.Overlap(a, c) {
		t.Fatal("[2,4] and [5,8] do not overlap")
	}
}

func TestCapacityLookup(t *testing.T) {
	p := smallLineProblem(t)
	if p.Capacity(5) != 1 {
		t.Fatal("default capacity must be 1")
	}
	p.Capacities = make([][]float64, 2)
	for q := range p.Capacities {
		p.Capacities[q] = make([]float64, 12)
		for e := range p.Capacities[q] {
			p.Capacities[q][e] = float64(q + 1)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Capacity(p.GlobalEdge(1, 3)); got != 2 {
		t.Fatalf("capacity of resource 1 = %g want 2", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, p := range []*Problem{smallTreeProblem(t), smallLineProblem(t)} {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var q Problem
		if err := json.Unmarshal(data, &q); err != nil {
			t.Fatal(err)
		}
		if q.Kind != p.Kind || len(q.Demands) != len(p.Demands) {
			t.Fatal("round trip lost structure")
		}
		a, b := p.Expand(), q.Expand()
		if len(a) != len(b) {
			t.Fatal("round trip changed expansion")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("instance %d changed: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

func TestJSONRejectsBadKind(t *testing.T) {
	var p Problem
	if err := json.Unmarshal([]byte(`{"kind":"mesh","demands":[]}`), &p); err == nil {
		t.Fatal("accepted unknown kind")
	}
}
