package model

import (
	"math/rand"
	"reflect"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/scenario"
	"treesched/internal/treedecomp"
)

// parallelTestProblems materializes every registered scenario (scale
// presets sized down — determinism is size-independent) for the
// parallel-build equivalence checks.
func parallelTestProblems(t *testing.T) map[string]*instance.Problem {
	t.Helper()
	out := map[string]*instance.Problem{}
	for _, s := range scenario.All() {
		params := scenario.Params{}
		if s.Scale {
			params = scenario.Params{Demands: 48, Size: 64, Networks: 8}
		}
		p, err := s.Generate(params, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		out[s.Name] = p
	}
	return out
}

// TestBuildParallelMatchesSerial is the model-layer determinism
// contract: Build at any Workers setting returns a model deep-equal to
// the serial build. Shard boundaries are fixed functions of the
// instance index and every reduction runs serially, so there is nothing
// scheduling-dependent to leak — this test is what lets every caller
// treat Workers as a pure wall-clock knob. Worker counts deliberately
// include one above GOMAXPROCS and one that does not divide the typical
// instance counts evenly.
func TestBuildParallelMatchesSerial(t *testing.T) {
	for name, p := range parallelTestProblems(t) {
		want, err := Build(p, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: serial build: %v", name, err)
		}
		for _, w := range []int{2, 0, 7} {
			got, err := Build(p, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: build with Workers=%d differs from serial build", name, w)
			}
		}
	}
}

// TestBuildShardsMatchSerial covers what the scenario problems above
// are too small for: row tables of several rowShard-sized shards. A
// tree under the full and the Appendix-A options and a line, each
// spanning at least three shards, must build deep-equal at Workers 2
// and 7 to the serial build.
func TestBuildShardsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree := gen.TreeProblem(gen.TreeConfig{N: 200, Trees: 4, Demands: 600, Unit: true, AccessProb: 0.6}, rng)
	line := gen.LineProblem(gen.LineConfig{Slots: 64, Resources: 4, Demands: 300, Unit: true, AccessProb: 0.6, MaxProc: 6, Slack: 6}, rng)
	for _, tc := range []struct {
		name string
		p    *instance.Problem
		opts Options
	}{
		{"tree", tree, Options{}},
		{"tree/appendix-a", tree, Options{DecompKind: treedecomp.KindRootFixing, CaptureWingsPi: true}},
		{"line", line, Options{}},
	} {
		tc.opts.Workers = 1
		want, err := Build(tc.p, tc.opts)
		if err != nil {
			t.Fatalf("%s: serial build: %v", tc.name, err)
		}
		if n := len(want.Insts); n <= 2*rowShard {
			t.Fatalf("%s: %d instances fill fewer than three shards", tc.name, n)
		}
		for _, w := range []int{2, 7} {
			tc.opts.Workers = w
			got, err := Build(tc.p, tc.opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: build with Workers=%d differs from serial build", tc.name, w)
			}
		}
	}
}

// TestBuildPathsPreallocated pins the counted-first-pass property of the
// path CSR: Data is allocated at exactly its final size, never grown.
func TestBuildPathsPreallocated(t *testing.T) {
	for name, p := range parallelTestProblems(t) {
		for _, w := range []int{1, 0} {
			m, err := Build(p, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if cap(m.Paths.Data) != len(m.Paths.Data) {
				t.Fatalf("%s workers=%d: Paths.Data cap %d != len %d (not preallocated)",
					name, w, cap(m.Paths.Data), len(m.Paths.Data))
			}
			if got, want := len(m.Paths.Off), len(m.Insts)+1; got != want {
				t.Fatalf("%s workers=%d: Paths.Off len %d, want %d", name, w, got, want)
			}
		}
	}
}

// TestBuildStatsBreakdown checks the per-phase instrumentation: every
// phase is non-negative, the total covers the phases, and the breakdown
// is recorded in serial mode too (it is the anchor the parallel columns
// of BENCH_core are judged against).
func TestBuildStatsBreakdown(t *testing.T) {
	for name, p := range parallelTestProblems(t) {
		for _, w := range []int{1, 0} {
			var st BuildStats
			if _, err := Build(p, Options{Workers: w, Stats: &st}); err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if st.TotalNs <= 0 {
				t.Fatalf("%s workers=%d: TotalNs = %d, want > 0", name, w, st.TotalNs)
			}
			for phase, ns := range map[string]int64{
				"decomp": st.DecompNs, "layer": st.LayerNs,
				"path": st.PathNs, "index": st.IndexNs,
			} {
				if ns < 0 {
					t.Fatalf("%s workers=%d: %s = %d ns, want >= 0", name, w, phase, ns)
				}
			}
			if sum := st.DecompNs + st.LayerNs + st.PathNs + st.IndexNs; sum > st.TotalNs {
				t.Fatalf("%s workers=%d: phase sum %d ns exceeds total %d ns", name, w, sum, st.TotalNs)
			}
			if p.Kind == instance.KindTree && st.LayerNs == 0 && len(p.Demands) > 0 {
				t.Fatalf("%s workers=%d: tree build recorded no layering time", name, w)
			}
		}
	}
}
