package bench

import (
	"fmt"
	"math"
	"math/rand"

	"treesched/internal/core"
	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/verify"
)

// Config scales the experiments.
type Config struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// Trials is the number of sampled problems per table cell.
	Trials int
	// Quick shrinks sizes for test runs.
	Quick bool
}

func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		c.Trials = 5
		if c.Quick {
			c.Trials = 2
		}
	}
	return c
}

// ratioStats accumulates certified/true ratios over trials, and the
// profit ratio against greedy where a table reports it.
type ratioStats struct {
	certSum, trueSum float64
	certMax, trueMax float64
	trueN            int
	n                int
	vsGreedySum      float64
}

// trial solves p with algo, panics on an infeasible schedule, and
// records the certified ratio and, where exact fits its node budget, the
// true ratio against the optimum.
func (s *ratioStats) trial(p *instanceProblem, algo string, opts core.Options) *core.Result {
	res, _, err := core.Solve(p, algo, opts)
	if err != nil {
		panic(err)
	}
	mustFeasible(p, res)
	s.addCert(res.CertifiedRatio)
	if opt, _, err := core.Solve(p, "exact", core.Options{MaxNodes: 4_000_000}); err == nil && res.Profit > 0 {
		s.addTrue(opt.Profit / res.Profit)
	}
	return res
}

// versusGreedy records res's profit over greedy's on p.
func (s *ratioStats) versusGreedy(p *instanceProblem, res *core.Result) {
	g, _, err := core.Solve(p, "greedy", core.Options{})
	if err != nil {
		panic(err)
	}
	if g.Profit > 0 {
		s.vsGreedySum += res.Profit / g.Profit
	}
}

// vsGreedyMean is the mean profit ratio against greedy per trial.
func (s *ratioStats) vsGreedyMean() float64 { return s.vsGreedySum / float64(s.n) }

func (s *ratioStats) addCert(r float64) {
	s.certSum += r
	if r > s.certMax {
		s.certMax = r
	}
	s.n++
}

func (s *ratioStats) addTrue(r float64) {
	s.trueSum += r
	if r > s.trueMax {
		s.trueMax = r
	}
	s.trueN++
}

func (s *ratioStats) certMean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.certSum / float64(s.n)
}

func (s *ratioStats) trueMean() float64 {
	if s.trueN == 0 {
		return math.NaN()
	}
	return s.trueSum / float64(s.trueN)
}

// instanceProblem keeps experiment signatures short.
type instanceProblem = instance.Problem

// E1 — Theorem 5.3 (unit-height tree networks, 7+ε): measured certified
// and true approximation ratios across tree shapes, against the paper
// bound.
func E1TreeUnitRatios(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E1 — Unit-height tree networks (Thm 5.3): ratio vs the 7+ε bound",
		Headers: []string{"shape", "n", "trees", "demands", "cert.ratio(mean)", "cert.ratio(max)", "true ratio(mean)", "bound"},
	}
	shapes := []gen.TreeShape{gen.ShapeRandom, gen.ShapeBinary, gen.ShapeCaterpillar, gen.ShapeStar}
	sizes := [][3]int{{24, 2, 14}, {48, 3, 24}}
	if cfg.Quick {
		sizes = sizes[:1]
	}
	eps := 0.25
	var bound float64
	for _, shape := range shapes {
		for _, sz := range sizes {
			var st ratioStats
			for trial := 0; trial < cfg.Trials; trial++ {
				p := gen.TreeProblem(gen.TreeConfig{
					N: sz[0], Trees: sz[1], Demands: sz[2], Unit: true, Shape: shape,
				}, rng)
				bound = st.trial(p, "tree-unit", core.Options{Epsilon: eps, Seed: uint64(trial)}).Bound
			}
			t.Add(shape.String(), sz[0], sz[1], sz[2], st.certMean(), st.certMax, st.trueMean(), bound)
		}
	}
	t.Note("cert.ratio = dual-UB/profit certifies OPT/profit ≤ cert.ratio on every run; bound = (∆+1)/λ = 7/(1−ε), ε=%.2f.", eps)
	t.Note("true ratio uses branch-and-bound optimum where it fits the node budget.")
	return t
}

// E2 — Theorem 5.3 round complexity: communication rounds of the
// goroutine message-passing execution as n grows; the paper predicts
// O(Time(MIS)·log n·log(1/ε)·log(pmax/pmin)).
func E2Rounds(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E2 — Distributed rounds vs n (Thm 5.3): polylog scaling",
		Headers: []string{"n", "demands", "rounds", "msgs", "aggregations", "rounds(fixed)", "rounds/log2(n)^2"},
	}
	ns := []int{16, 32, 64, 128, 256}
	if cfg.Quick {
		ns = []int{16, 64}
	}
	for _, n := range ns {
		roundsSum, msgSum, aggSum, fixedSum := 0, int64(0), 0, 0
		for trial := 0; trial < cfg.Trials; trial++ {
			p := gen.TreeProblem(gen.TreeConfig{N: n, Trees: 2, Demands: 24, Unit: true}, rng)
			res, net, err := core.Solve(p, "dist-unit", core.Options{Epsilon: 0.25, Seed: uint64(trial)})
			if err != nil {
				panic(err)
			}
			mustFeasible(p, res)
			roundsSum += net.Rounds
			msgSum += net.Messages
			aggSum += net.Aggregations
			res, net, err = core.Solve(p, "dist-unit", core.Options{Epsilon: 0.25, Seed: uint64(trial), FixedRounds: true})
			if err != nil {
				panic(err)
			}
			mustFeasible(p, res)
			fixedSum += net.Rounds
		}
		fTrials := float64(cfg.Trials)
		rMean := float64(roundsSum) / fTrials
		l := math.Log2(float64(n))
		t.Add(n, 24, rMean, float64(msgSum)/fTrials, float64(aggSum)/fTrials, float64(fixedSum)/fTrials, rMean/(l*l))
	}
	t.Note("rounds = Exchange barriers; aggregations = global-OR terminations (each would cost O(diameter) rounds as a convergecast).")
	t.Note("rounds(fixed) runs the paper's deterministic schedule (pmax/pmin known): zero aggregations, rounds = epochs·stages·(1+log2 spread)·(Luby budget) — the exact O(Time(MIS)·log n·log(1/ε)·log(pmax/pmin)) shape of Thm 5.3.")
	t.Note("epochs track the ideal decomposition depth ≤ 2⌈log n⌉, so rounds/log²n staying flat-ish confirms the polylog claim.")
	return t
}

// E3 — Lemma 6.2: the narrow-instance algorithm's certified ratio against
// 2∆²+1 = 73 (trees), and the 1/hmin dependence of its stage count.
func E3Narrow(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E3 — Narrow instances (Lemma 6.2): ratio and 1/hmin round scaling",
		Headers: []string{"hmin", "cert.ratio(mean)", "true ratio(mean)", "bound", "stages", "rounds", "aggregations"},
	}
	hmins := []float64{0.5, 0.25, 0.125, 0.0625}
	if cfg.Quick {
		hmins = []float64{0.5, 0.125}
	}
	for _, hmin := range hmins {
		var st ratioStats
		stages, rounds, aggs := 0, 0, 0
		var bound float64
		for trial := 0; trial < cfg.Trials; trial++ {
			p := gen.TreeProblem(gen.TreeConfig{
				N: 20, Trees: 2, Demands: 12, HMin: hmin, HMax: 0.5,
			}, rng)
			res := st.trial(p, "narrow", core.Options{Epsilon: 0.25, Seed: uint64(trial), CollectTrace: true})
			bound = res.Bound
			if len(res.Trace.StepsPerStage) > 0 {
				stages = len(res.Trace.StepsPerStage[0])
			}
			_, net, err := core.Solve(p, "dist-narrow", core.Options{Epsilon: 0.25, Seed: uint64(trial)})
			if err != nil {
				panic(err)
			}
			rounds += net.Rounds
			aggs += net.Aggregations
		}
		t.Add(hmin, st.certMean(), st.trueMean(), bound, stages, rounds/cfg.Trials, aggs/cfg.Trials)
	}
	t.Note("stages per epoch ≈ log_ξ(ε) with ξ = c/(c+hmin), c = 1+∆² — the 1/hmin growth (Lemma 6.2) shows in stages and aggregations; exchange rounds stay low because most stages converge instantly (empty U costs one aggregation, no exchange).")
	return t
}

// E4 — Theorem 6.3: the combined arbitrary-height tree algorithm (80+ε):
// certified/true ratios and comparison with greedy.
func E4Arbitrary(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E4 — Arbitrary heights on trees (Thm 6.3): combined wide+narrow",
		Headers: []string{"workload", "cert.ratio(mean)", "true ratio(mean)", "bound", "profit vs greedy"},
	}
	type wl struct {
		name       string
		hmin, hmax float64
	}
	for _, w := range []wl{
		{"mixed 0.1–1.0", 0.1, 1.0},
		{"mostly wide 0.6–1.0", 0.6, 1.0},
		{"mostly narrow 0.1–0.5", 0.1, 0.5},
	} {
		var st ratioStats
		var bound float64
		for trial := 0; trial < cfg.Trials; trial++ {
			p := gen.TreeProblem(gen.TreeConfig{
				N: 18, Trees: 2, Demands: 12, HMin: w.hmin, HMax: w.hmax,
			}, rng)
			res := st.trial(p, "arbitrary", core.Options{Epsilon: 0.25, Seed: uint64(trial)})
			bound = res.Bound
			st.versusGreedy(p, res)
		}
		t.Add(w.name, st.certMean(), st.trueMean(), bound, st.vsGreedyMean())
	}
	t.Note("bound = (∆+1)/λ + (2∆²+1)/λ ≤ 80/(1−ε) per Theorem 6.3; measured ratios sit far below it.")
	return t
}

// E5 — Theorem 7.1 vs Panconesi–Sozio: unit-height line networks with
// windows; the multi-stage λ=1−ε schedule against the single-stage
// λ=1/(5+ε) baseline.
func E5LineUnit(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E5 — Unit-height lines with windows (Thm 7.1): ours (4+ε) vs Panconesi–Sozio (20+ε)",
		Headers: []string{"algorithm", "bound", "cert.ratio(mean)", "true ratio(mean)", "profit (mean)"},
	}
	type accum struct {
		st     ratioStats
		profit float64
		bound  float64
	}
	ours, ps := &accum{}, &accum{}
	for trial := 0; trial < cfg.Trials*2; trial++ {
		p := gen.LineProblem(gen.LineConfig{
			Slots: 32, Resources: 2, Demands: 14, Unit: true, MaxProc: 8,
		}, rng)
		for _, run := range []struct {
			acc  *accum
			algo string
		}{{ours, "line-unit"}, {ps, "ps"}} {
			res := run.acc.st.trial(p, run.algo, core.Options{Epsilon: 0.25, Seed: uint64(trial)})
			run.acc.bound = res.Bound
			run.acc.profit += res.Profit
		}
	}
	n := float64(cfg.Trials * 2)
	t.Add("multi-stage (this paper)", ours.bound, ours.st.certMean(), ours.st.trueMean(), ours.profit/n)
	t.Add("single-stage (P–S [16])", ps.bound, ps.st.certMean(), ps.st.trueMean(), ps.profit/n)
	t.Note("the paper's factor-5 improvement is in λ: 1−ε vs 1/(5+ε); the certified ratio gap shows it directly.")
	return t
}

// E6 — Theorem 7.2: arbitrary heights on lines (23+ε vs P–S's published
// 55+ε, which the supplied text does not specify in enough detail to
// reimplement — see DESIGN.md).
func E6LineArbitrary(cfg Config) *Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E6 — Arbitrary heights on lines with windows (Thm 7.2)",
		Headers: []string{"workload", "cert.ratio(mean)", "true ratio(mean)", "bound", "profit vs greedy"},
	}
	for _, res := range []struct {
		name       string
		hmin, hmax float64
	}{
		{"mixed 0.1–1.0", 0.1, 1.0},
		{"narrow 0.1–0.5", 0.1, 0.5},
	} {
		var st ratioStats
		var bound float64
		for trial := 0; trial < cfg.Trials; trial++ {
			p := gen.LineProblem(gen.LineConfig{
				Slots: 28, Resources: 2, Demands: 12, HMin: res.hmin, HMax: res.hmax, MaxProc: 7,
			}, rng)
			r := st.trial(p, "arbitrary", core.Options{Epsilon: 0.25, Seed: uint64(trial)})
			bound = r.Bound
			st.versusGreedy(p, r)
		}
		t.Add(res.name, st.certMean(), st.trueMean(), bound, st.vsGreedyMean())
	}
	t.Note("combined bound (4+ε)+(19+ε) = 23+2ε (Thm 7.2); [16]'s comparable guarantee is 55+ε.")
	return t
}

// mustFeasible panics when an algorithm emits an infeasible solution —
// experiments double as system tests.
func mustFeasible(p *instanceProblem, res *core.Result) {
	if err := verify.Solution(p, res.Selected); err != nil {
		panic(fmt.Sprintf("bench: %s produced infeasible solution: %v", res.Name, err))
	}
}
