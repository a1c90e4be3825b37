package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"treesched/internal/dist"
	"treesched/internal/gen"
	"treesched/internal/instance"
)

// freshPairCaterpillar is one problem of perfbench's fresh-pair
// caterpillar family: 160 unit demands on 4 caterpillars of 64 vertices,
// each caterpillar accessible with probability 0.6.
func freshPairCaterpillar(seed int64) *instance.Problem {
	return gen.TreeProblem(gen.TreeConfig{
		N: 64, Trees: 4, Demands: 160, Shape: gen.ShapeCaterpillar, Unit: true, AccessProb: 0.6,
	}, rand.New(rand.NewSource(seed)))
}

// hashDistRun folds one distributed run's observable output into h: the
// selected instances, the float bits of Profit, DualUB, CertifiedRatio
// and Lambda, and the network cost.
func hashDistRun(h hash.Hash, label string, r *Result, st *dist.Stats) {
	b := append([]byte(label), 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Selected)))
	for _, in := range r.Selected {
		for _, v := range []int32{in.ID, in.Demand, in.Net, in.U, in.V} {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(in.Profit))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(in.Height))
	}
	for _, f := range []float64{r.Profit, r.DualUB, r.CertifiedRatio, r.Lambda} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	for _, v := range []int64{int64(st.Rounds), st.Messages, int64(st.Aggregations), st.Entries} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	h.Write(b)
}

// TestDistributedOutputsPinned pins the distributed protocol's outputs
// bit for bit. The equivalence suites compare DualUB only within a
// tolerance (1e-6 against centralized, 1e-12 pool against blocking), so a
// reordered float addition in the node-local dual arithmetic that moves
// an output bit would pass them; it cannot pass this digest. (A rounding
// change that no output keeps, such as one δ off by an ulp that the
// DualUB sum absorbs, passes both.) It covers dist-unit, dist-narrow and
// dist-ps on fixed-seed gen families, on both engines and at two pool
// worker counts, adaptive and (on at most 12 demands) fixed-rounds.
func TestDistributedOutputsPinned(t *testing.T) {
	const pinned = "dfbc236b1b40fb785703a27a7bd312e2d53fcf1aae14743fecf358dfa23f7399"
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	unitTree := gen.TreeConfig{N: 32, Trees: 3, Unit: true}
	unitLine := gen.LineConfig{Slots: 48, Resources: 3, Unit: true}
	narrowTree := gen.TreeConfig{N: 32, Trees: 3, HMin: 0.1, HMax: 0.5}
	capNarrowTree := gen.TreeConfig{N: 32, Trees: 3, HMin: 0.1, HMax: 0.5, Capacity: 1.6, CapJitter: 0.5}
	// The fixed narrow schedule runs ~10^5 rounds even on a handful of
	// demands; a narrower height and profit spread keeps it short.
	fixedNarrowTree := gen.TreeConfig{N: 32, Trees: 2, HMin: 0.25, HMax: 0.5, PMin: 1, PMax: 2}
	fixedCapNarrowTree := fixedNarrowTree
	fixedCapNarrowTree.Capacity, fixedCapNarrowTree.CapJitter = 1.6, 0.5
	with := func(cfg gen.TreeConfig, demands int) gen.TreeConfig { cfg.Demands = demands; return cfg }
	withLine := func(cfg gen.LineConfig, demands int) gen.LineConfig { cfg.Demands = demands; return cfg }

	cases := []struct {
		name  string
		p     *instance.Problem
		algos []string
		fixed bool
	}{
		{"caterpillar", freshPairCaterpillar(1), []string{"dist-unit"}, false},
		{"unit-tree", gen.TreeProblem(with(unitTree, 48), rng(2)), []string{"dist-unit"}, false},
		{"unit-line", gen.LineProblem(withLine(unitLine, 48), rng(3)), []string{"dist-unit", "dist-ps"}, false},
		{"narrow-tree", gen.TreeProblem(with(narrowTree, 40), rng(4)), []string{"dist-narrow"}, false},
		{"cap-narrow-tree", gen.TreeProblem(with(capNarrowTree, 40), rng(5)), []string{"dist-narrow"}, false},
		{"unit-tree-fixed", gen.TreeProblem(with(unitTree, 12), rng(6)), []string{"dist-unit"}, true},
		{"unit-line-fixed", gen.LineProblem(withLine(unitLine, 12), rng(7)), []string{"dist-unit"}, true},
		{"narrow-tree-fixed", gen.TreeProblem(with(fixedNarrowTree, 6), rng(8)), []string{"dist-narrow"}, true},
		{"cap-narrow-tree-fixed", gen.TreeProblem(with(fixedCapNarrowTree, 6), rng(9)), []string{"dist-narrow"}, true},
	}
	h := sha256.New()
	for _, tc := range cases {
		c, err := Compile(tc.p, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, name := range tc.algos {
			a, ok := Lookup(name)
			if !ok {
				t.Fatalf("unknown algorithm %q", name)
			}
			for _, workers := range []int{0, 1, -1} {
				opts := Options{Epsilon: 0.25, Seed: 7, FixedRounds: tc.fixed, DistWorkers: workers}
				r, st, err := a.Run(c, opts)
				if err != nil {
					t.Fatalf("%s/%s workers %d: %v", tc.name, name, workers, err)
				}
				hashDistRun(h, tc.name+"/"+name, r, st)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Fatalf("distributed outputs hash to %s, pinned %s", got, pinned)
	}
}

// caterpillarDistUnit compiles one fresh-pair caterpillar problem and
// returns a dist-unit solve of it on the single-worker pool engine; the
// first call, made here, builds the compiled problem's lazy model.
func caterpillarDistUnit(tb testing.TB) func() {
	c, err := Compile(freshPairCaterpillar(1), 0)
	if err != nil {
		tb.Fatal(err)
	}
	a, _ := Lookup("dist-unit")
	solve := func() {
		if _, _, err := a.Run(c, Options{Seed: 1, DistWorkers: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	solve()
	return solve
}

// BenchmarkDistributedUnitCaterpillar times the protocol-dominated solve
// of fresh-pair's caterpillar family: 160 processors, ~140 rounds and
// ~33k messages per solve.
func BenchmarkDistributedUnitCaterpillar(b *testing.B) {
	solve := caterpillarDistUnit(b)
	b.ReportAllocs()
	for b.Loop() {
		solve()
	}
}

// TestDistributedUnitAllocations pins the allocations of one dist-unit
// solve of the fresh-pair caterpillar problem on the single-worker pool
// engine. Per-processor state is a few dense slices laid out once per
// solve and inboxes are read in place, so the whole solve allocates
// about eight times per processor: 1,331 times for these 160.
func TestDistributedUnitAllocations(t *testing.T) {
	const budget = 1400
	solve := caterpillarDistUnit(t)
	// Runtime noise only ever adds allocations, so the minimum of a few
	// measurements is the honest per-solve cost.
	best := testing.AllocsPerRun(5, solve)
	for range 2 {
		best = min(best, testing.AllocsPerRun(5, solve))
	}
	if best > budget {
		t.Fatalf("dist-unit on the caterpillar problem allocates %.0f per solve, budget %d", best, budget)
	}
	t.Logf("%.0f allocs per solve", best)
}
