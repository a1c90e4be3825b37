package verify

import (
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
)

// TestRejectionMessages pins the text of every rejection Solution can
// return, on fixed problems: the literals were computed before Solution
// gave up its maps, so a change to a check's order, to a load sum or to
// an error text fails here.
func TestRejectionMessages(t *testing.T) {
	tree := treeProblem(t)
	insts := tree.Expand()
	first := insts[0]
	var twice []instance.Inst
	for _, d := range insts {
		if d.Demand == first.Demand {
			twice = append(twice, d)
		}
	}
	if len(twice) < 2 {
		twice = []instance.Inst{first, first}
	}
	inaccessible := first
	for q := 0; q < tree.NumNetworks(); q++ {
		allowed := false
		for _, a := range tree.Demands[first.Demand].Access {
			allowed = allowed || a == q
		}
		if !allowed {
			inaccessible.Net = int32(q)
			break
		}
	}
	unknown := first
	unknown.Demand = 99
	negative := first
	negative.Demand = -1
	heavier := first
	heavier.Height = 0.25
	moved := first
	moved.U, moved.V = moved.V, moved.U

	fig2 := gen.PaperFigure2Problem(true)
	fig2Insts := fig2.Expand()

	line := &instance.Problem{
		Kind: instance.KindLine, NumSlots: 10, NumResources: 2,
		Capacities: [][]float64{{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, {2, 2, 0.5, 2, 2, 2, 2, 2, 2, 2}},
		Demands: []instance.Demand{
			{ID: 0, Release: 2, Deadline: 7, ProcTime: 3, Profit: 1, Height: 0.3, Access: []int{0, 1}},
			{ID: 1, Release: 0, Deadline: 9, ProcTime: 2, Profit: 1, Height: 0.3, Access: []int{0}},
			{ID: 2, Release: 0, Deadline: 9, ProcTime: 4, Profit: 1, Height: 0.5, Access: []int{0}},
			{ID: 3, Release: 0, Deadline: 3, ProcTime: 4, Profit: 1, Height: 1, Access: []int{1}},
		},
	}
	if err := line.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func(d, u, v, net int32, h float64) instance.Inst {
		return instance.Inst{Demand: d, Net: net, U: u, V: v, Profit: 1, Height: h}
	}

	for _, tc := range []struct {
		name string
		p    *instance.Problem
		sel  []instance.Inst
		want string
	}{
		{"unknown demand", tree, []instance.Inst{unknown}, "verify: instance references demand 99 of 6"},
		{"negative demand", tree, []instance.Inst{negative}, "verify: instance references demand -1 of 6"},
		{"demand twice", tree, twice[:2], "verify: demand 0 scheduled twice"},
		{"inaccessible network", tree, []instance.Inst{inaccessible}, "verify: demand 0 scheduled on inaccessible network 0"},
		{"height changed", tree, []instance.Inst{heavier}, "verify: demand 0 height changed: 0.25 vs 1"},
		{"endpoints changed", tree, []instance.Inst{moved}, "verify: demand 0 endpoints (6,11) differ from (11,6)"},
		{"tree edge overloaded", fig2, fig2Insts[:2], "verify: edge 5 overloaded: 2 > capacity 1"},
		{"run before release", line, []instance.Inst{run(0, 1, 3, 0, 0.3)}, "verify: demand 0 run [1,3] outside window [2,7]"},
		{"run after deadline", line, []instance.Inst{run(0, 6, 8, 0, 0.3)}, "verify: demand 0 run [6,8] outside window [2,7]"},
		{"run too short", line, []instance.Inst{run(0, 3, 4, 0, 0.3)}, "verify: demand 0 runs 2 slots, needs 3"},
		{"low-capacity slot", line, []instance.Inst{run(3, 0, 3, 1, 1)}, "verify: edge 12 overloaded: 1 > capacity 0.5"},
		{"float load sum", line, []instance.Inst{run(0, 2, 4, 0, 0.3), run(1, 3, 4, 0, 0.3), run(2, 4, 7, 0, 0.5)}, "verify: edge 4 overloaded: 1.1 > capacity 1"},
		{"later demand twice", line, []instance.Inst{run(1, 0, 1, 0, 0.3), run(0, 2, 4, 1, 0.3), run(1, 5, 6, 0, 0.3)}, "verify: demand 1 scheduled twice"},
		{"feasible", line, []instance.Inst{run(0, 2, 4, 1, 0.3), run(1, 5, 6, 0, 0.3), run(2, 0, 3, 0, 0.5)}, "<nil>"},
	} {
		err := Solution(tc.p, tc.sel)
		got := "<nil>"
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}
