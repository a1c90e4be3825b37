package model

import (
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
)

// splice builds the effective problem after removing the demand ids in
// removed (a set) and appending added, renumbering ids densely, together
// with the oldOf provenance WithDelta consumes.
func splice(base *instance.Problem, removed map[int]bool, added []instance.Demand) (*instance.Problem, []int32) {
	np := *base
	np.Demands = nil
	var oldOf []int32
	for i, d := range base.Demands {
		if removed[i] {
			continue
		}
		d.ID = len(np.Demands)
		np.Demands = append(np.Demands, d)
		oldOf = append(oldOf, int32(i))
	}
	for _, d := range added {
		d.ID = len(np.Demands)
		np.Demands = append(np.Demands, d)
		oldOf = append(oldOf, -1)
	}
	return &np, oldOf
}

func csrEqual(t *testing.T, name string, got, want CSR) {
	t.Helper()
	if !slices.Equal(got.Off, want.Off) {
		t.Fatalf("%s.Off mismatch:\n got %v\nwant %v", name, got.Off, want.Off)
	}
	if !slices.Equal(got.Data, want.Data) {
		t.Fatalf("%s.Data mismatch:\n got %v\nwant %v", name, got.Data, want.Data)
	}
}

// modelsEqual asserts every field a solver reads is identical.
func modelsEqual(t *testing.T, got, want *Model) {
	t.Helper()
	if !slices.Equal(got.Insts, want.Insts) {
		t.Fatalf("Insts mismatch:\n got %v\nwant %v", got.Insts, want.Insts)
	}
	csrEqual(t, "Paths", got.Paths, want.Paths)
	csrEqual(t, "Pi", got.Pi, want.Pi)
	if !slices.Equal(got.Group, want.Group) {
		t.Fatalf("Group mismatch:\n got %v\nwant %v", got.Group, want.Group)
	}
	if got.NumGroups != want.NumGroups || got.Delta != want.Delta {
		t.Fatalf("NumGroups/Delta = %d/%d, want %d/%d", got.NumGroups, got.Delta, want.NumGroups, want.Delta)
	}
	if !slices.Equal(got.Cap, want.Cap) || got.MaxCap != want.MaxCap {
		t.Fatalf("capacity mismatch")
	}
	csrEqual(t, "InstsOf", got.InstsOf, want.InstsOf)
	csrEqual(t, "GroupInsts", got.GroupInsts, want.GroupInsts)
	csrEqual(t, "EdgeInsts", got.EdgeInsts, want.EdgeInsts)
	if got.NumDemands != want.NumDemands || got.EdgeSpace != want.EdgeSpace {
		t.Fatalf("NumDemands/EdgeSpace = %d/%d, want %d/%d", got.NumDemands, got.EdgeSpace, want.NumDemands, want.EdgeSpace)
	}
	if got.PMin != want.PMin || got.PMax != want.PMax || got.HMin != want.HMin {
		t.Fatalf("ranges = (%g,%g,%g), want (%g,%g,%g)", got.PMin, got.PMax, got.HMin, want.PMin, want.PMax, want.HMin)
	}
}

// deltaProblems returns (base problem, reservoir of addable demands) per
// tested configuration.
func deltaProblems(seed int64) map[string][2]*instance.Problem {
	out := map[string][2]*instance.Problem{}
	rng := rand.New(rand.NewSource(seed))
	tp := gen.TreeProblem(gen.TreeConfig{N: 24, Trees: 2, Demands: 40, HMin: 0.1, HMax: 1.0, AccessProb: 0.6}, rng)
	rng = rand.New(rand.NewSource(seed))
	tc := gen.TreeProblem(gen.TreeConfig{N: 24, Trees: 2, Demands: 40, HMin: 0.1, HMax: 1.0, Capacity: 1.5, CapJitter: 0.4, AccessProb: 0.6}, rng)
	rng = rand.New(rand.NewSource(seed))
	lp := gen.LineProblem(gen.LineConfig{Slots: 30, Resources: 2, Demands: 40, Unit: true, AccessProb: 0.6}, rng)
	for name, pool := range map[string]*instance.Problem{"tree": tp, "tree-cap": tc, "line": lp} {
		base := *pool
		base.Demands = append([]instance.Demand(nil), pool.Demands[:20]...)
		reservoir := *pool
		reservoir.Demands = append([]instance.Demand(nil), pool.Demands[20:]...)
		out[name] = [2]*instance.Problem{&base, &reservoir}
	}
	return out
}

// TestWithDeltaMatchesBuild drives chains of demand splices and asserts
// the incrementally rebuilt model is field-for-field identical to a fresh
// Build of the effective problem.
func TestWithDeltaMatchesBuild(t *testing.T) {
	for name, pair := range deltaProblems(7) {
		t.Run(name, func(t *testing.T) {
			cur, reservoir := pair[0], pair[1].Demands
			m, err := Build(cur, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			next := 0
			for round := 0; round < 6; round++ {
				removed := map[int]bool{}
				nRemove := rng.Intn(1 + len(cur.Demands)/4)
				for len(removed) < nRemove {
					removed[rng.Intn(len(cur.Demands))] = true
				}
				var added []instance.Demand
				for k := rng.Intn(4); k > 0 && next < len(reservoir); k-- {
					added = append(added, reservoir[next])
					next++
				}
				np, oldOf := splice(cur, removed, added)
				got, err := m.WithDelta(np, oldOf)
				if err != nil {
					t.Fatalf("round %d: WithDelta: %v", round, err)
				}
				want, err := Build(np, Options{Decomps: m.Decomps})
				if err != nil {
					t.Fatalf("round %d: Build: %v", round, err)
				}
				modelsEqual(t, got, want)
				cur, m = np, got // chain: the next delta rebuilds a delta-built model
			}
		})
	}
}

// TestWithDeltaRemoveAll drains every demand and rebuilds from empty.
func TestWithDeltaRemoveAll(t *testing.T) {
	pair := deltaProblems(3)["line"]
	cur := pair[0]
	m, err := Build(cur, Options{})
	if err != nil {
		t.Fatal(err)
	}
	removed := map[int]bool{}
	for i := range cur.Demands {
		removed[i] = true
	}
	np, oldOf := splice(cur, removed, nil)
	got, err := m.WithDelta(np, oldOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Insts) != 0 || got.NumGroups != 0 {
		t.Fatalf("empty delta model has %d insts, %d groups", len(got.Insts), got.NumGroups)
	}
	// And adding back onto the empty model works.
	np2, oldOf2 := splice(np, nil, pair[1].Demands[:5])
	got2, err := got.WithDelta(np2, oldOf2)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := Build(np2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, got2, want2)
}

// TestWithDeltaRejects covers the guard rails: filtered models, payload
// drift and ID renumbering mistakes are refused.
func TestWithDeltaRejects(t *testing.T) {
	pair := deltaProblems(5)["tree"]
	cur := pair[0]
	m, err := Build(cur, Options{})
	if err != nil {
		t.Fatal(err)
	}

	sub, err := m.FilterCopy(func(d instance.Inst) bool { return d.Height > 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	np, oldOf := splice(cur, map[int]bool{0: true}, nil)
	if _, err := sub.WithDelta(np, oldOf); err == nil {
		t.Fatal("WithDelta on a filtered model did not error")
	}

	// Payload drift: claim to copy demand 0 but change its profit.
	np2, oldOf2 := splice(cur, nil, nil)
	np2.Demands[0].Profit++
	if _, err := m.WithDelta(np2, oldOf2); err == nil {
		t.Fatal("WithDelta with drifted payload did not error")
	}

	// Bad renumbering.
	np3, oldOf3 := splice(cur, nil, nil)
	np3.Demands[1].ID = 7
	if _, err := m.WithDelta(np3, oldOf3); err == nil {
		t.Fatal("WithDelta with bad IDs did not error")
	}
}

// TestFilterCopyMatchesBuild compares row-copied sub-models against
// filtered Builds for both partitions of the wide/narrow split.
func TestFilterCopyMatchesBuild(t *testing.T) {
	for name, pair := range deltaProblems(13) {
		t.Run(name, func(t *testing.T) {
			p := pair[0]
			m, err := Build(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			wide := make([]bool, len(p.Demands))
			for i := range m.Insts {
				if m.EffHeight(int32(i)) > 0.5 {
					wide[m.Insts[i].Demand] = true
				}
			}
			for _, tc := range []struct {
				name string
				keep func(instance.Inst) bool
			}{
				{"wide", func(d instance.Inst) bool { return wide[d.Demand] }},
				{"narrow", func(d instance.Inst) bool { return !wide[d.Demand] }},
				{"none", func(d instance.Inst) bool { return false }},
			} {
				got, err := m.FilterCopy(tc.keep)
				if err != nil {
					t.Fatalf("%s: FilterCopy: %v", tc.name, err)
				}
				want, err := Build(p, Options{Decomps: m.Decomps, Filter: tc.keep})
				if err != nil {
					t.Fatalf("%s: Build: %v", tc.name, err)
				}
				modelsEqual(t, got, want)
			}
		})
	}
}

// TestFilterCopyAllocations pins the allocation count of FilterCopy, which
// always finalizes serially: the sub-model, its copied rows, its derived
// indexes and the consistency check's scratch, nothing more. A serial
// finalize that hands its steps to par.Go as closures pays five more heap
// allocations (four escaping closures and the shared error), on every
// FilterCopy and every single-worker Build.
func TestFilterCopyAllocations(t *testing.T) {
	const budget = 18
	for name, pair := range deltaProblems(13) {
		m, err := Build(pair[0], Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		keep := func(d instance.Inst) bool { return d.Demand%2 == 0 }
		got := testing.AllocsPerRun(50, func() {
			if _, err := m.FilterCopy(keep); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget {
			t.Errorf("%s: FilterCopy allocates %v times, budget %d", name, got, budget)
		}
	}
}
