package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"treesched/internal/dist"
	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/obs"
	"treesched/internal/scenario"
)

// freshPairCaterpillar is one problem of perfbench's fresh-pair
// caterpillar family: 160 unit demands on 4 caterpillars of 64 vertices,
// each caterpillar accessible with probability 0.6.
func freshPairCaterpillar(seed int64) *instance.Problem {
	return gen.TreeProblem(gen.TreeConfig{
		N: 64, Trees: 4, Demands: 160, Shape: gen.ShapeCaterpillar, Unit: true, AccessProb: 0.6,
	}, rand.New(rand.NewSource(seed)))
}

// appendDistRun appends one distributed run's observable output to b:
// the selected instances, the float bits of Profit, DualUB,
// CertifiedRatio and Lambda, and the network cost.
func appendDistRun(b []byte, label string, r *Result, st *dist.Stats) []byte {
	b = append(append(b, label...), 0)
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
	return b
}

// appendDuals appends the float bits of a run's merged duals to b: α per
// demand, then β per edge.
func appendDuals(b []byte, label string, d *lp.Duals) []byte {
	b = append(append(b, label...), 0)
	for _, v := range [][]float64{d.Alpha, d.Beta} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
		for _, f := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

// TestDistributedOutputsPinned pins the distributed protocol's outputs
// and its merged duals bit for bit. The equivalence suites compare
// DualUB only within a tolerance (1e-6 against centralized, 1e-12 pool
// against blocking), so a reordered float addition in the node-local dual
// arithmetic that moves an output bit would pass them; it cannot pass the
// output digest. A rounding change that no output keeps, such as one δ
// off by an ulp that the DualUB sum absorbs, passes the output digest but
// not the duals digest, which hashes every α and β assembleDistributed
// merges. It covers dist-unit, dist-narrow and dist-ps on fixed-seed gen
// families, on both engines and at two pool worker counts, adaptive and
// (on at most 12 demands) fixed-rounds. An explicit 3-worker pool run of
// each, which shards even the smallest case, must equal its 1-worker run
// byte for byte; it is not hashed, so the digests stay those computed
// before the default worker count followed the network's size.
func TestDistributedOutputsPinned(t *testing.T) {
	const (
		pinned      = "dfbc236b1b40fb785703a27a7bd312e2d53fcf1aae14743fecf358dfa23f7399"
		pinnedDuals = "1ceae344eab1b2457061652eae184cb3477bec8786ba4809ad3a570aa615cf4d"
	)
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
	var merged *lp.Duals
	mergedDuals = func(d *lp.Duals) { merged = d }
	defer func() { mergedDuals = nil }()
	h, hd := sha256.New(), sha256.New()
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
			label := tc.name + "/" + name
			run := func(workers int) (out, duals []byte) {
				merged = nil
				opts := Options{Epsilon: 0.25, Seed: 7, FixedRounds: tc.fixed, DistWorkers: workers}
				r, st, err := a.Run(c, opts)
				if err != nil {
					t.Fatalf("%s workers %d: %v", label, workers, err)
				}
				if merged == nil {
					t.Fatalf("%s workers %d: no merged duals reached the test seam", label, workers)
				}
				return appendDistRun(nil, label, r, st), appendDuals(nil, label, merged)
			}
			var oneOut, oneDuals []byte
			for _, workers := range []int{0, 1, -1} {
				out, duals := run(workers)
				h.Write(out)
				hd.Write(duals)
				if workers == 1 {
					oneOut, oneDuals = out, duals
				}
			}
			if out, duals := run(3); !bytes.Equal(out, oneOut) || !bytes.Equal(duals, oneDuals) {
				t.Fatalf("%s: the 3-worker pool run differs from the 1-worker run (outputs equal: %v, duals equal: %v)",
					label, bytes.Equal(out, oneOut), bytes.Equal(duals, oneDuals))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Fatalf("distributed outputs hash to %s, pinned %s", got, pinned)
	}
	if got := hex.EncodeToString(hd.Sum(nil)); got != pinnedDuals {
		t.Fatalf("distributed merged duals hash to %s, pinned %s", got, pinnedDuals)
	}
}

// caterpillarDistUnit compiles one fresh-pair caterpillar problem and
// returns a dist-unit solve of it on the single-worker pool engine, each
// call under a fresh obs.Trace when traced; the first call, made here,
// builds the compiled problem's lazy model.
func caterpillarDistUnit(tb testing.TB, traced bool) func() {
	c, err := Compile(freshPairCaterpillar(1), 0)
	if err != nil {
		tb.Fatal(err)
	}
	a, _ := Lookup("dist-unit")
	solve := func() {
		opts := Options{Seed: 1, DistWorkers: 1}
		if traced {
			opts.Telemetry = obs.NewTrace()
		}
		if _, _, err := a.Run(c, opts); err != nil {
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
	solve := caterpillarDistUnit(b, false)
	b.ReportAllocs()
	for b.Loop() {
		solve()
	}
}

// solveAllocs returns the allocations of one call of solve. Runtime noise
// only ever adds allocations, so the minimum of a few measurements is the
// honest per-solve cost.
func solveAllocs(solve func()) float64 {
	best := testing.AllocsPerRun(5, solve)
	for range 2 {
		best = min(best, testing.AllocsPerRun(5, solve))
	}
	return best
}

// TestDistributedUnitAllocations pins the allocations of one dist-unit
// solve of the fresh-pair caterpillar problem on the single-worker pool
// engine. Per-processor state is a few dense slices laid out once per
// solve and inboxes are read in place, so the whole solve allocates
// about eight times per processor: 1,326 times for these 160. A traced
// solve, as the shipped server runs one request in a hundred, may add
// at most tracedExtra: its spans, counters and the round log, which the
// trace takes over without a copy.
func TestDistributedUnitAllocations(t *testing.T) {
	const budget, tracedExtra = 1400, 18
	plain := solveAllocs(caterpillarDistUnit(t, false))
	if plain > budget {
		t.Fatalf("dist-unit on the caterpillar problem allocates %.0f per solve, budget %d", plain, budget)
	}
	traced := solveAllocs(caterpillarDistUnit(t, true))
	if traced > plain+tracedExtra {
		t.Fatalf("a traced dist-unit solve allocates %.0f, %.0f more than untraced; allowed %d more",
			traced, traced-plain, tracedExtra)
	}
	t.Logf("%.0f allocs per solve, %.0f traced", plain, traced)
}

// BenchmarkDistributedUnitWorkers is the sweep behind dist.PoolWorkers'
// minShard: dist-unit at n processors on one and on two pool workers,
// on fresh-pair's caterpillar family scaled to n (4 caterpillars of
// 0.4·n vertices, the 160-demand problem's conflict density) and on the
// three scale presets at n demands with their networks scaled to keep
// the presets' demands per network. Compare the two rows of each n.
func BenchmarkDistributedUnitWorkers(b *testing.B) {
	type family struct {
		name string
		ns   []int
		make func(n int) (*instance.Problem, error)
	}
	a, _ := Lookup("dist-unit")
	families := []family{{"caterpillar", []int{40, 160, 640, 1000, 2000, 4000}, func(n int) (*instance.Problem, error) {
		return gen.TreeProblem(gen.TreeConfig{
			N: max(16, 2*n/5), Trees: 4, Demands: n, Shape: gen.ShapeCaterpillar, Unit: true, AccessProb: 0.6,
		}, rand.New(rand.NewSource(1))), nil
	}}}
	for _, name := range []string{"caterpillar-20k", "random-tree-50k", "line-100k"} {
		s, _ := scenario.Get(name)
		d := s.Defaults
		families = append(families, family{name, []int{40, 160, 640, 2000, 4000, 8000, 16000}, func(n int) (*instance.Problem, error) {
			return s.Generate(scenario.Params{Demands: n, Networks: max(1, n*d.Networks/d.Demands)}, 1)
		}})
	}
	for _, f := range families {
		for _, n := range f.ns {
			p, err := f.make(n)
			if err != nil {
				b.Fatal(err)
			}
			c, err := Compile(p, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/n=%d/workers=%d", f.name, n, workers), func(b *testing.B) {
					for b.Loop() {
						if _, _, err := a.Run(c, Options{Seed: 1, DistWorkers: workers}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
