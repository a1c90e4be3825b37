package bench

import (
	"fmt"
	"math"
	"math/rand"

	"treesched/internal/core"
	"treesched/internal/gen"
	"treesched/internal/model"
	"treesched/internal/treedecomp"
)

// E7 — Lemmas 4.1/4.3: decomposition quality. For each construction and
// tree family: depth, pivot size θ, and the layered ∆ = max |π(d)|,
// against the paper's bounds (ideal: depth ≤ 2⌈log n⌉, θ=2, ∆=6).
func E7Decomp(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E7 — Tree decompositions (Lemmas 4.1, 4.3): depth, θ, ∆",
		Headers: []string{"construction", "shape", "n", "depth", "2⌈log n⌉", "θ", "∆"},
	}
	ns := []int{64, 256, 1024}
	if cfg.Quick {
		ns = []int{64, 256}
	}
	shapes := []gen.TreeShape{gen.ShapeRandom, gen.ShapePath, gen.ShapeStar, gen.ShapeCaterpillar}
	for _, kind := range []treedecomp.Kind{treedecomp.KindIdeal, treedecomp.KindBalancing, treedecomp.KindRootFixing} {
		for _, shape := range shapes {
			for _, n := range ns {
				tr := gen.MakeTree(shape, n, rng)
				d := treedecomp.Build(tr, kind)
				// ∆ from the Lemma 4.2 construction over sample demands.
				p := gen.TreeProblem(gen.TreeConfig{N: n, Trees: 1, Demands: 40, Unit: true, AccessProb: 1}, rng)
				p.Trees[0] = tr
				m, err := model.Build(p, model.Options{Decomps: []*treedecomp.Decomposition{d}})
				if err != nil {
					panic(err)
				}
				t.Add(kind.String(), shape.String(), n,
					d.MaxDepth(), 2*int(math.Ceil(math.Log2(float64(n)))),
					d.PivotSize(), m.Delta)
			}
		}
	}
	t.Note("ideal: depth ≤ 2⌈log n⌉ with θ=2 and ∆ ≤ 6 everywhere (Lemma 4.1/4.3); root-fixing trades depth=n for θ=1; balancing trades θ≈log n for depth ⌈log n⌉+1.")
	return t
}

// E8 — Lemma 5.1: steps per stage stay ≤ 1+log2(pmax/pmin) as the profit
// spread grows.
func E8Steps(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E8 — Steps per stage vs profit spread (Lemma 5.1)",
		Headers: []string{"pmax/pmin", "max steps/stage", "bound 1+log2(spread)", "total steps"},
	}
	spreads := []float64{1, 10, 100, 1000}
	if cfg.Quick {
		spreads = []float64{1, 100}
	}
	for _, spread := range spreads {
		maxSteps, totalSteps := 0, 0
		for trial := 0; trial < cfg.Trials; trial++ {
			p := gen.TreeProblem(gen.TreeConfig{
				N: 24, Trees: 2, Demands: 20, Unit: true, PMin: 1, PMax: spread,
			}, rng)
			if spread == 1 {
				for i := range p.Demands {
					p.Demands[i].Profit = 1
				}
			}
			res, _, err := core.Solve(p, "tree-unit", core.Options{Epsilon: 0.25, Seed: uint64(trial), CollectTrace: true})
			if err != nil {
				panic(err)
			}
			for _, epoch := range res.Trace.StepsPerStage {
				for _, s := range epoch {
					if s > maxSteps {
						maxSteps = s
					}
					totalSteps += s
				}
			}
		}
		t.Add(spread, maxSteps, 1+math.Ceil(math.Log2(spread)), totalSteps/cfg.Trials)
	}
	t.Note("Lemma 5.1: a kill chain doubles profits, so a stage runs at most 1+log2(pmax/pmin) steps; the measured maxima respect it.")
	return t
}

// E9 — Appendix A: the sequential algorithm's true ratio against its
// guarantee (3 for multiple trees, 2 for a single tree).
func E9Sequential(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E9 — Sequential Appendix-A algorithm: ratio vs 2/3 guarantee",
		Headers: []string{"trees", "cert.ratio(mean)", "cert.ratio(max)", "true ratio(mean)", "bound"},
	}
	for _, trees := range []int{1, 3} {
		var st ratioStats
		var bound float64
		for trial := 0; trial < cfg.Trials*2; trial++ {
			p := gen.TreeProblem(gen.TreeConfig{
				N: 14, Trees: trees, Demands: 10, Unit: true,
			}, rng)
			bound = st.trial(p, "sequential", core.Options{}).Bound
		}
		t.Add(fmt.Sprintf("tree ×%d", trees), st.certMean(), st.certMax, st.trueMean(), bound)
	}
	// The §1-cited line baseline: Bar-Noy et al. / Berman–Dasgupta style
	// 2-approximation, reformulated with π(d) = {end slot}.
	var st ratioStats
	for trial := 0; trial < cfg.Trials*2; trial++ {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 20, Resources: 2, Demands: 10, Unit: true, MaxProc: 6,
		}, rng)
		st.trial(p, "seq-line", core.Options{})
	}
	t.Add("line (Bar-Noy style)", st.certMean(), st.certMax, st.trueMean(), 2.0)
	t.Note("single tree drops the α variables (Lewin-Eytan et al. reformulated): ∆=2, λ=1 ⇒ ratio 2; multiple trees ⇒ 3; the line row is the [4,5] 2-approximation with π(d) = {end slot}, ∆=1.")
	return t
}

// E10 — the capacitated / non-uniform bandwidth extension (abstract;
// IPPS'13 title): feasibility and ratios under jittered edge capacities.
func E10Capacitated(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E10 — Non-uniform bandwidths (capacitated extension)",
		Headers: []string{"kind", "capacity", "cert.ratio(mean)", "true ratio(mean)", "profit vs greedy"},
	}
	type wl struct {
		name     string
		tree     bool
		cap, jit float64
	}
	for _, w := range []wl{
		{"tree", true, 1.5, 0.5},
		{"tree", true, 3.0, 1.0},
		{"line", false, 2.0, 0.8},
	} {
		var st ratioStats
		for trial := 0; trial < cfg.Trials; trial++ {
			var p *instanceProblem
			if w.tree {
				p = gen.TreeProblem(gen.TreeConfig{
					N: 16, Trees: 2, Demands: 12, HMin: 0.2, HMax: 1.0,
					Capacity: w.cap, CapJitter: w.jit,
				}, rng)
			} else {
				p = gen.LineProblem(gen.LineConfig{
					Slots: 24, Resources: 2, Demands: 12, HMin: 0.2, HMax: 1.0,
					MaxProc: 6, Capacity: w.cap, CapJitter: w.jit,
				}, rng)
			}
			st.versusGreedy(p, st.trial(p, "arbitrary", core.Options{Epsilon: 0.25, Seed: uint64(trial)}))
		}
		t.Add(w.name, w.cap, st.certMean(), st.trueMean(), st.vsGreedyMean())
	}
	t.Note("capacities drawn as cap ± jitter per edge; heights classified by effective (capacity-normalized) height; the Capacitated raise rule stores β pre-multiplied by cap (see internal/lp).")
	return t
}

// E11 — ablation: the algorithm run with each of the three tree
// decompositions. Ideal keeps both ∆ (ratio) and epochs (rounds) small;
// the simpler decompositions lose one or the other, exactly the paper's
// motivation for §4.3.
func E11DecompAblation(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E11 — Ablation: tree decomposition choice (why 'ideal' matters)",
		Headers: []string{"decomposition", "∆", "epochs", "bound", "cert.ratio(mean)", "rounds(dist)"},
	}
	for _, kind := range []treedecomp.Kind{treedecomp.KindIdeal, treedecomp.KindBalancing, treedecomp.KindRootFixing} {
		var st ratioStats
		var bound float64
		delta, epochs, rounds := 0, 0, 0
		for trial := 0; trial < cfg.Trials; trial++ {
			// Caterpillars have linear root-fixing depth, so the epoch
			// blowup of the naive decomposition is visible at this size.
			p := gen.TreeProblem(gen.TreeConfig{
				N: 128, Trees: 2, Demands: 20, Unit: true, Shape: gen.ShapeCaterpillar,
			}, rng)
			res, _, err := core.Solve(p, "tree-unit", core.Options{Epsilon: 0.25, Seed: uint64(trial), DecompKind: kind})
			if err != nil {
				panic(err)
			}
			mustFeasible(p, res)
			bound = res.Bound
			st.addCert(res.CertifiedRatio)
			delta = res.Model.Delta
			epochs = res.Model.NumGroups
			_, net, err := core.Solve(p, "dist-unit", core.Options{Epsilon: 0.25, Seed: uint64(trial), DecompKind: kind})
			if err != nil {
				panic(err)
			}
			rounds += net.Rounds
		}
		t.Add(kind.String(), delta, epochs, bound, st.certMean(), rounds/cfg.Trials)
	}
	t.Note("root-fixing: ∆ ≤ 4 but epochs ≈ depth of the tree (rounds blow up); balancing: few epochs but ∆ grows with log n (bound blows up); ideal: ∆=6 and epochs ≤ 2⌈log n⌉ — both small (Lemma 4.1).")
	return t
}

// E12 — ablation: multi-stage λ = 1−ε vs single-stage λ = 1/(5+ε) on the
// same line workloads — the source of the paper's factor-5 improvement.
func E12StageAblation(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E12 — Ablation: multi-stage vs single-stage slackness",
		Headers: []string{"schedule", "λ", "bound", "cert.ratio(mean)", "steps(total)"},
	}
	type acc struct {
		st     ratioStats
		lambda float64
		bound  float64
		steps  int
	}
	multi, single := &acc{}, &acc{}
	for trial := 0; trial < cfg.Trials*2; trial++ {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 32, Resources: 2, Demands: 14, Unit: true, MaxProc: 8,
		}, rng)
		mres, _, err := core.Solve(p, "line-unit", core.Options{Epsilon: 0.25, Seed: uint64(trial), CollectTrace: true})
		if err != nil {
			panic(err)
		}
		sres, _, err := core.Solve(p, "ps", core.Options{Epsilon: 0.25, Seed: uint64(trial), CollectTrace: true})
		if err != nil {
			panic(err)
		}
		multi.st.addCert(mres.CertifiedRatio)
		single.st.addCert(sres.CertifiedRatio)
		multi.lambda, single.lambda = mres.Lambda, sres.Lambda
		multi.bound, single.bound = mres.Bound, sres.Bound
		multi.steps += mres.Trace.Steps()
		single.steps += sres.Trace.Steps()
	}
	n := cfg.Trials * 2
	t.Add("multi-stage (§5)", multi.lambda, multi.bound, multi.st.certMean(), multi.steps/n)
	t.Add("single-stage ([16])", single.lambda, single.bound, single.st.certMean(), single.steps/n)
	t.Note("the multi-stage schedule pays more steps per epoch to push λ from 1/(5+ε) to 1−ε, buying the 20+ε → 4+ε bound improvement.")
	return t
}

// All runs every experiment and returns the tables in order.
func All(cfg Config) []*Table {
	return []*Table{
		E1TreeUnitRatios(cfg),
		E2Rounds(cfg),
		E3Narrow(cfg),
		E4Arbitrary(cfg),
		E5LineUnit(cfg),
		E6LineArbitrary(cfg),
		E7Decomp(cfg),
		E8Steps(cfg),
		E9Sequential(cfg),
		E10Capacitated(cfg),
		E11DecompAblation(cfg),
		E12StageAblation(cfg),
	}
}
