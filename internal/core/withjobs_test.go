package core

import (
	"encoding/json"
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
)

// The WithJobs equivalence guard (the online-session correctness
// property): after ANY sequence of add/remove deltas — small ones served
// by the incremental rebuild, large ones by the churn fallback — solving
// the delta-compiled problem must be byte-identical to a from-scratch
// Compile + solve of the same effective instance, for every algorithm
// applicable to the problem class.

// canonical marshals the deterministic face of a Result: everything a
// serving response would carry. Byte equality of two canonical forms is
// the test's identity notion.
func canonical(t *testing.T, r *Result) []byte {
	t.Helper()
	sel := r.Selected
	if sel == nil {
		sel = []instance.Inst{}
	}
	data, err := json.Marshal(struct {
		Name           string
		Selected       []instance.Inst
		Profit         float64
		DualUB         float64
		CertifiedRatio float64
		Bound          float64
		Lambda         float64
	}{r.Name, sel, r.Profit, r.DualUB, r.CertifiedRatio, r.Bound, r.Lambda})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

type wjConfig struct {
	name  string
	algos []string
	gen   func(demands int, rng *rand.Rand) *instance.Problem
}

var wjConfigs = []wjConfig{
	{
		name:  "tree-unit",
		algos: []string{"tree-unit", "sequential", "greedy", "arbitrary", "dist-unit"},
		gen: func(m int, rng *rand.Rand) *instance.Problem {
			return gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 2, Demands: m, Unit: true, AccessProb: 0.6}, rng)
		},
	},
	{
		name:  "line-unit",
		algos: []string{"line-unit", "ps", "seq-line", "greedy", "arbitrary"},
		gen: func(m int, rng *rand.Rand) *instance.Problem {
			return gen.LineProblem(gen.LineConfig{Slots: 24, Resources: 2, Demands: m, Unit: true, AccessProb: 0.6}, rng)
		},
	},
	{
		name:  "tree-capacitated",
		algos: []string{"arbitrary", "greedy"},
		gen: func(m int, rng *rand.Rand) *instance.Problem {
			return gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 2, Demands: m, HMin: 0.1, HMax: 1.0, Capacity: 1.5, CapJitter: 0.4, AccessProb: 0.6}, rng)
		},
	},
	{
		name:  "tree-narrow",
		algos: []string{"narrow", "greedy", "arbitrary"},
		gen: func(m int, rng *rand.Rand) *instance.Problem {
			return gen.TreeProblem(gen.TreeConfig{N: 20, Trees: 2, Demands: m, HMin: 0.05, HMax: 0.5, AccessProb: 0.6}, rng)
		},
	},
}

// TestWithJobsEquivalence fuzzes event sequences over every config × 3
// seeds: each round applies a random delta through WithJobs and asserts
// the solve output is byte-identical to a cold Compile + solve of the
// effective problem, for every applicable algorithm. One round per seed
// forces churn past the threshold so the fallback path is exercised too.
func TestWithJobsEquivalence(t *testing.T) {
	for _, cfg := range wjConfigs {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(cfg.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				pool := cfg.gen(48, rng)
				reservoir := pool.Demands[16:]
				next := 0

				cur := *pool
				cur.Demands = append([]instance.Demand(nil), pool.Demands[:16]...)
				c, err := Compile(&cur, 0)
				if err != nil {
					t.Fatal(err)
				}
				// The delta path requires a built model; a first solve
				// (any algorithm) builds it, as a session's first resolve
				// would.
				if _, err := solveCompiled(c, cfg.algos[0], Options{Seed: uint64(seed)}); err != nil {
					t.Fatal(err)
				}

				for round := 0; round < 5; round++ {
					m := len(c.Problem().Demands)
					var removed []int
					var added []instance.Demand
					if round == 3 {
						// Past-threshold round: remove most of the set.
						for i := 0; i < m*3/4; i++ {
							removed = append(removed, i)
						}
					} else {
						for i := 0; i < m; i++ {
							if rng.Intn(8) == 0 {
								removed = append(removed, i)
							}
						}
					}
					for k := rng.Intn(4); k > 0; k-- {
						added = append(added, reservoir[next%len(reservoir)])
						next++
					}
					nc, err := c.WithJobs(added, removed)
					if err != nil {
						t.Fatalf("round %d: WithJobs: %v", round, err)
					}
					if round == 3 && nc.Incremental() {
						t.Fatalf("round %d: churn %d/%d should have fallen back", round, len(removed)+len(added), m)
					}

					ref, err := Compile(nc.Problem(), 0)
					if err != nil {
						t.Fatalf("round %d: reference compile: %v", round, err)
					}
					for _, algo := range cfg.algos {
						got, err := solveCompiled(nc, algo, Options{Seed: uint64(seed)})
						if err != nil {
							t.Fatalf("round %d: %s on delta: %v", round, algo, err)
						}
						want, err := solveCompiled(ref, algo, Options{Seed: uint64(seed)})
						if err != nil {
							t.Fatalf("round %d: %s on reference: %v", round, algo, err)
						}
						g, w := canonical(t, got), canonical(t, want)
						if string(g) != string(w) {
							t.Fatalf("round %d: %s diverged (incremental=%t)\n got %s\nwant %s",
								round, algo, nc.Incremental(), g, w)
						}
						// The pooled re-solve must reproduce itself.
						again, err := solveCompiled(nc, algo, Options{Seed: uint64(seed)})
						if err != nil {
							t.Fatalf("round %d: %s re-solve: %v", round, algo, err)
						}
						if string(canonical(t, again)) != string(g) {
							t.Fatalf("round %d: %s not deterministic on pooled scratch", round, algo)
						}
					}
					c = nc
				}
			})
		}
	}
}

// TestWithJobsRejects pins the argument validation.
func TestWithJobsRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := gen.TreeProblem(gen.TreeConfig{N: 12, Trees: 1, Demands: 6, Unit: true}, rng)
	c, err := Compile(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WithJobs(nil, []int{6}); err == nil {
		t.Fatal("out-of-range removal did not error")
	}
	if _, err := c.WithJobs(nil, []int{1, 1}); err == nil {
		t.Fatal("duplicate removal did not error")
	}
	bad := p.Demands[0]
	bad.Access = []int{5}
	if _, err := c.WithJobs([]instance.Demand{bad}, nil); err == nil {
		t.Fatal("invalid added demand did not error")
	}
}

// TestWithJobsIncrementalFlag asserts the delta path actually engages for
// small churn once a model exists, and that WithJobs before any solve
// falls back cleanly.
func TestWithJobsIncrementalFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := gen.LineProblem(gen.LineConfig{Slots: 24, Resources: 2, Demands: 20, Unit: true}, rng)
	c, err := Compile(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := c.WithJobs(nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if nc.Incremental() {
		t.Fatal("WithJobs before the first solve cannot be incremental")
	}
	if _, err := c.LineUnit(Options{}); err != nil {
		t.Fatal(err)
	}
	nc, err = c.WithJobs(nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !nc.Incremental() {
		t.Fatal("small-churn WithJobs after a solve should take the delta path")
	}
}
