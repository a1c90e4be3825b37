package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"treesched/internal/dist"
	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/model"
	"treesched/internal/scenario"
	"treesched/internal/verify"
)

// driverPairs are the centralized registry entries, each with the
// distributed entry that runs the same variant.
var driverPairs = []struct{ central, dist string }{
	{"tree-unit", "dist-unit"},
	{"line-unit", "dist-unit"},
	{"narrow", "dist-narrow"},
	{"ps", "dist-ps"},
}

// centralVariant is the variant the centralized entry central runs on
// p's full model m.
func centralVariant(central string, p *instance.Problem, m *model.Model, eps float64) (variant, error) {
	switch central {
	case "narrow":
		return narrowVariant(p, m, eps, "NarrowOnly")
	case "ps":
		return psVariant(m, eps), nil
	default:
		return unitVariant(central, m, eps), nil
	}
}

// compareDrivers solves c with the centralized entry central and with
// the distributed entry distributed under opts (DistWorkers reaches only
// the distributed side), and returns the distributed run, or an error
// naming the first difference between the two in bytes: the selections,
// the float bits of Profit, DualUB, CertifiedRatio, Lambda and Bound, the
// name up to its "-distributed" suffix, and the merged duals against the
// duals of the centralized Phase1 oracle. When central refuses c, the
// pair does not apply and it returns no run and no error.
func compareDrivers(c *Compiled, central, distributed string, opts Options) (*Result, *dist.Stats, error) {
	ca, _ := Lookup(central)
	da, _ := Lookup(distributed)
	want, _, err := ca.Run(c, opts)
	if err != nil {
		return nil, nil, nil
	}
	var merged *lp.Duals
	mergedDuals = func(d *lp.Duals) { merged = d }
	defer func() { mergedDuals = nil }()
	got, st, err := da.Run(c, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("%s solved it, %s refused: %v", central, distributed, err)
	}
	if got.Name != want.Name+"-distributed" {
		return nil, nil, fmt.Errorf("named %q, want %q", got.Name, want.Name+"-distributed")
	}
	if !bytes.Equal(appendInsts(nil, got.Selected), appendInsts(nil, want.Selected)) {
		return nil, nil, fmt.Errorf("selections differ: %v vs centralized %v", got.Selected, want.Selected)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Profit", got.Profit, want.Profit},
		{"DualUB", got.DualUB, want.DualUB},
		{"CertifiedRatio", got.CertifiedRatio, want.CertifiedRatio},
		{"Lambda", got.Lambda, want.Lambda},
		{"Bound", got.Bound, want.Bound},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return nil, nil, fmt.Errorf("%s %v, centralized %v", f.name, f.got, f.want)
		}
	}
	m := want.Model
	v, err := centralVariant(central, c.p, m, opts.withDefaults().Epsilon)
	if err != nil {
		return nil, nil, err
	}
	duals, _, err := Phase1(m, v.rule, v.sched, opts.Seed, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range []struct {
		name      string
		got, want []float64
	}{{"α", merged.Alpha, duals.Alpha}, {"β", merged.Beta, duals.Beta}} {
		for k := range d.want {
			if math.Float64bits(d.got[k]) != math.Float64bits(d.want[k]) {
				return nil, nil, fmt.Errorf("merged %s[%d] = %v, centralized Phase1 %v", d.name, k, d.got[k], d.want[k])
			}
		}
	}
	return got, st, nil
}

// TestDistributedMatchesCentralizedBytes holds every distributed entry
// to its centralized twins byte for byte (compareDrivers), adaptive, with
// the distributed side at DistWorkers 0, 3 and −1: on the non-scale
// presets at seeds 1–3, and on generated unit trees and lines, narrow
// trees with and without capacities, windowed lines and an adversarial
// hub, each family the inputs and seeds of one earlier per-pair test.
// Every distributed run must also be feasible and communicate, and a
// case may name a distributed entry that must refuse it.
func TestDistributedMatchesCentralizedBytes(t *testing.T) {
	type driverCase struct {
		p       *instance.Problem
		seed    uint64
		refuses string
	}
	var presets []driverCase
	for _, s := range scenario.All() {
		if s.Scale {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			p, err := s.Generate(scenario.Params{}, seed)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			presets = append(presets, driverCase{p: p, seed: uint64(seed)})
		}
	}
	var unitTrees, unitLines, narrowTrees, windowedLines []driverCase
	rng := rand.New(rand.NewSource(1))
	for trial := range 8 {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 10 + rng.Intn(25), Trees: 1 + rng.Intn(3), Demands: 4 + rng.Intn(16), Unit: true,
		}, rng)
		unitTrees = append(unitTrees, driverCase{p: p, seed: uint64(100 + trial)})
	}
	rng = rand.New(rand.NewSource(2))
	for trial := range 6 {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 16 + rng.Intn(24), Resources: 1 + rng.Intn(3), Demands: 4 + rng.Intn(10), Unit: true,
		}, rng)
		unitLines = append(unitLines, driverCase{p: p, seed: uint64(trial)})
	}
	rng = rand.New(rand.NewSource(3))
	for trial := range 5 {
		p := gen.TreeProblem(gen.TreeConfig{
			N: 10 + rng.Intn(15), Trees: 1 + rng.Intn(2), Demands: 4 + rng.Intn(10),
			HMin: 0.2, HMax: 0.5,
		}, rng)
		narrowTrees = append(narrowTrees, driverCase{p: p, seed: uint64(trial)})
	}
	rng = rand.New(rand.NewSource(4))
	for trial := range 4 {
		p := gen.LineProblem(gen.LineConfig{Slots: 20, Resources: 2, Demands: 8, Unit: true, MaxProc: 6}, rng)
		windowedLines = append(windowedLines, driverCase{p: p, seed: uint64(trial)})
	}
	windowedLines = append(windowedLines, driverCase{
		p: gen.TreeProblem(gen.TreeConfig{N: 8, Trees: 1, Demands: 3, Unit: true}, rng), refuses: "dist-ps",
	})
	families := []struct {
		name  string
		cases []driverCase
	}{
		{"presets", presets},
		{"unit-tree", unitTrees},
		{"unit-line", unitLines},
		{"narrow-tree", narrowTrees},
		{"cap-narrow-tree", []driverCase{{p: gen.TreeProblem(gen.TreeConfig{
			N: 12, Trees: 2, Demands: 8, HMin: 0.2, HMax: 0.45, Capacity: 1.5, CapJitter: 0.4,
		}, rand.New(rand.NewSource(4))), seed: 9}}},
		{"windowed-line", windowedLines},
		{"adversarial-hub", []driverCase{{p: gen.AdversarialHub(3, 4, 2, 12, rand.New(rand.NewSource(2))), seed: 77}}},
	}

	compared := map[string]int{}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			for k, tc := range f.cases {
				c, err := Compile(tc.p, 0)
				if err != nil {
					t.Fatalf("case %d: %v", k, err)
				}
				if tc.refuses != "" {
					a, _ := Lookup(tc.refuses)
					if _, _, err := a.Run(c, Options{Epsilon: 0.25, Seed: tc.seed}); err == nil {
						t.Fatalf("case %d: %s accepted it", k, tc.refuses)
					}
				}
				for _, pair := range driverPairs {
					for _, workers := range []int{0, 3, -1} {
						label := fmt.Sprintf("case %d %s/%s workers %d", k, pair.central, pair.dist, workers)
						r, st, err := compareDrivers(c, pair.central, pair.dist, Options{Epsilon: 0.25, Seed: tc.seed, DistWorkers: workers})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if r == nil {
							break
						}
						if err := verify.Solution(tc.p, r.Selected); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if st.Rounds == 0 || st.Messages == 0 {
							t.Fatalf("%s: no communication recorded: %+v", label, *st)
						}
						compared[pair.central+"/"+pair.dist]++
					}
				}
			}
		})
	}
	for _, pair := range driverPairs {
		if compared[pair.central+"/"+pair.dist] == 0 {
			t.Errorf("%s/%s: no case compared", pair.central, pair.dist)
		}
	}
	t.Logf("runs compared per pair: %v", compared)
}

// TestAssembleRejectsDivergedBetaCopies hands assembleDistributed two
// processors whose copies of one edge's β differ, by one ulp or by a NaN:
// every copy gets the same increments in the same order, so the merge
// must report the divergence rather than take either copy.
func TestAssembleRejectsDivergedBetaCopies(t *testing.T) {
	c, err := Compile(gen.TreeProblem(gen.TreeConfig{N: 8, Trees: 1, Demands: 2, Unit: true}, rand.New(rand.NewSource(1))), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Model()
	if err != nil {
		t.Fatal(err)
	}
	v := unitVariant("tree-unit", m, 0.25)
	for _, second := range []float64{math.Nextafter(0.5, 1), math.NaN()} {
		machines := []*protoEngine{
			{ns: nodeState{edges: []int32{1}, beta: []float64{0.5}}},
			{ns: nodeState{edges: []int32{1}, beta: []float64{second}}},
		}
		_, err := assembleDistributed(m, &v, machines, dist.Stats{})
		if err == nil || !strings.Contains(err.Error(), "β copies diverged on edge 1") {
			t.Errorf("copies 0.5 and %v merged with error %v, want the divergence", second, err)
		}
	}
}

func TestDistributedRoundsScaleWithLogN(t *testing.T) {
	// Not a strict bound, but rounds should stay polylogarithmic-ish:
	// quadrupling n should far less than quadruple the rounds.
	rng := rand.New(rand.NewSource(5))
	rounds := func(n int) int {
		p := gen.TreeProblem(gen.TreeConfig{N: n, Trees: 2, Demands: 20, Unit: true}, rng)
		d, err := solveDist(p, "dist-unit", Options{Epsilon: 0.25, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return d.Net.Rounds
	}
	r16, r256 := rounds(16), rounds(256)
	if r256 > 16*r16 {
		t.Fatalf("rounds grew superlinearly with n: %d (n=16) vs %d (n=256)", r16, r256)
	}
	t.Logf("rounds: n=16 → %d, n=256 → %d", r16, r256)
}
