// Package treesched is a Go implementation of the distributed scheduling
// algorithms of Chakaravarthy, Roy and Sabharwal, "Distributed Algorithms
// for Scheduling on Line and Tree Networks with Non-uniform Bandwidths"
// (IPPS 2013; full version arXiv:1205.1924).
//
// The problem: m processors each own a demand — a vertex pair on a set of
// tree networks, or a time window on a set of line resources — with a
// profit and a bandwidth requirement (height). A feasible schedule places
// a subset of demands, each on a network its owner can access, so that on
// every edge the scheduled heights fit within the bandwidth. The goal is
// maximum total profit; the algorithms give constant-factor guarantees and
// run in a polylogarithmic number of communication rounds in a synchronous
// message-passing network of processors.
//
// Solvers (centralized drivers; see SolveDistributed* for the goroutine
// message-passing drivers):
//
//   - SolveTreeUnit: unit heights on tree networks, (7+ε)-approximation
//     (the paper's main result, Theorem 5.3).
//   - SolveLineUnit: unit heights on lines with windows, (4+ε)
//     (Theorem 7.1; improves Panconesi–Sozio's 20+ε by the factor 5).
//   - SolveNarrow: all heights ≤ 1/2, (2∆²+1)/(1−ε) (Lemma 6.2).
//   - SolveArbitrary: any heights, (80+ε) on trees / (23+ε) on lines
//     (Theorems 6.3, 7.2); handles non-uniform edge capacities.
//   - SolveSequential: Appendix-A sequential 3-approximation (2 for a
//     single tree).
//   - SolveExact: branch-and-bound optimum for small instances.
//   - SolveGreedy: profit-greedy baseline.
//   - SolvePanconesiSozio: the single-stage 20+ε baseline on lines.
//
// Every result carries a weak-duality certificate: DualUB ≥ p(Opt), so
// CertifiedRatio = DualUB/Profit bounds the true approximation ratio of
// that specific run.
//
// Quickstart:
//
//	tree, _ := treesched.NewTree(6, [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}, {3, 5}})
//	p := &treesched.Problem{
//	    Kind:        treesched.KindTree,
//	    NumVertices: 6,
//	    Trees:       []*treesched.Tree{tree},
//	    Demands: []treesched.Demand{
//	        {ID: 0, U: 0, V: 4, Profit: 3, Height: 1, Access: []int{0}},
//	        {ID: 1, U: 2, V: 5, Profit: 2, Height: 1, Access: []int{0}},
//	    },
//	}
//	res, err := treesched.SolveTreeUnit(p, treesched.Options{Epsilon: 0.25})
//
// To solve one problem many times (different algorithms, seeds or
// epsilons), compile it once and reuse the compiled form:
//
//	c, _ := treesched.CompileProblem(p)
//	r1, _ := c.TreeUnit(treesched.Options{Seed: 1})
//	r2, _ := c.TreeUnit(treesched.Options{Seed: 2})
//
// Serving: cmd/schedserver exposes the library as a concurrent HTTP
// service with a scenario library and a compiled-instance cache
// (NewEngine is the embeddable form). For example:
//
//	go run ./cmd/schedserver -addr :8080 &
//	curl -s localhost:8080/scenarios
//	curl -s -X POST localhost:8080/solve \
//	    -d '{"algo":"line-unit","scenario":"videowall-line","scenario_seed":7}'
//
// Equal requests return byte-identical JSON, cold or cached.
package treesched

import (
	"math/rand"

	"treesched/internal/core"
	"treesched/internal/gen"
	"treesched/internal/graph"
	"treesched/internal/instance"
	"treesched/internal/online"
	"treesched/internal/scenario"
	"treesched/internal/service"
	"treesched/internal/verify"
)

// Problem is a complete scheduling input: networks, demands,
// accessibility, and optional per-edge capacities.
type Problem = instance.Problem

// Demand is one processor's job: endpoints (trees) or window (lines),
// profit, height, and the set of accessible networks.
type Demand = instance.Demand

// Instance is a demand instance: one concrete placement of a demand.
type Instance = instance.Inst

// Tree is an undirected tree network.
type Tree = graph.Tree

// Problem kinds.
const (
	// KindTree marks tree-network problems (§2 of the paper).
	KindTree = instance.KindTree
	// KindLine marks line-network problems with windows (§7).
	KindLine = instance.KindLine
)

// NewTree builds a tree network over n vertices from n-1 undirected edges.
func NewTree(n int, edges [][2]int) (*Tree, error) { return graph.NewTree(n, edges) }

// NewPath builds the path graph 0-1-...-(n-1).
func NewPath(n int) *Tree { return graph.NewPath(n) }

// Result is an algorithm outcome: the selected instances, their profit,
// and the weak-duality certificate.
type Result = core.Result

// DistributedResult couples a Result with the measured network cost of
// the message-passing execution: Net.Rounds (synchronous communication
// rounds — the quantity bounded by Theorem 5.3), Net.Messages
// (point-to-point deliveries), Net.Entries (payload entries delivered,
// each O(log m + log pmax) bits), and Net.Aggregations (global OR
// reductions; zero under Options.FixedRounds). See the internal/dist
// package comment for the precise accounting rules.
type DistributedResult = core.DistributedResult

// Options configures a solver run (epsilon, seed, trace collection,
// decomposition choice). For the distributed drivers, DistWorkers picks
// the BSP engine: the default sharded worker pool sizes itself by the
// network, one goroutine for a small network and at most GOMAXPROCS for
// a 100k-processor one; a positive value fixes the pool's worker count,
// and a negative value selects the goroutine-per-processor reference
// runtime. Results and network Stats are byte-identical either way.
type Options = core.Options

// SolveTreeUnit runs the (7+ε)-approximation for unit-height demands on
// tree networks (Theorem 5.3).
func SolveTreeUnit(p *Problem, opts Options) (*Result, error) { return solve(p, "tree-unit", opts) }

// SolveLineUnit runs the (4+ε)-approximation for unit-height demands on
// line networks with windows (Theorem 7.1).
func SolveLineUnit(p *Problem, opts Options) (*Result, error) { return solve(p, "line-unit", opts) }

// SolveNarrow runs the narrow-instance algorithm (Lemma 6.2); every
// demand's effective height must be ≤ 1/2.
func SolveNarrow(p *Problem, opts Options) (*Result, error) { return solve(p, "narrow", opts) }

// SolveArbitrary runs the combined arbitrary-height algorithm
// (Theorems 6.3 and 7.2), including non-uniform edge capacities.
func SolveArbitrary(p *Problem, opts Options) (*Result, error) { return solve(p, "arbitrary", opts) }

// SolveSequential runs the Appendix-A sequential algorithm (unit heights,
// tree networks): 3-approximation, 2 for a single tree.
func SolveSequential(p *Problem, opts Options) (*Result, error) { return solve(p, "sequential", opts) }

// SolveExact computes the optimum by branch and bound (small instances
// only; the problem is NP-hard). maxNodes caps the search; 0 = default.
func SolveExact(p *Problem, maxNodes int64) (*Result, error) {
	return solve(p, "exact", Options{MaxNodes: maxNodes})
}

// SolveGreedy runs the profit-greedy baseline.
func SolveGreedy(p *Problem) (*Result, error) { return solve(p, "greedy", Options{}) }

// SolvePanconesiSozio runs the single-stage (20+ε) baseline of [15,16] on
// unit-height line networks.
func SolvePanconesiSozio(p *Problem, opts Options) (*Result, error) {
	return solve(p, "ps", opts)
}

// SolveSequentialLine runs the classical sequential 2-approximation for
// unit-height line networks with windows (Bar-Noy et al. / Berman–Dasgupta
// style, reformulated in the two-phase framework).
func SolveSequentialLine(p *Problem, opts Options) (*Result, error) {
	return solve(p, "seq-line", opts)
}

// SolveDistributedPanconesiSozio is the message-passing driver of the
// Panconesi–Sozio baseline.
func SolveDistributedPanconesiSozio(p *Problem, opts Options) (*DistributedResult, error) {
	return solveDistributed(p, "dist-ps", opts)
}

// SolveDistributedUnit runs the unit-height algorithm as a real
// message-passing protocol on a synchronous BSP simulation — one
// goroutine per processor, communication only between processors sharing
// a resource — and reports rounds, messages, payload entries and global
// aggregations. Same selections as the centralized solver for equal
// seeds; with Options.FixedRounds it runs the paper's deterministic
// schedule (zero aggregations).
func SolveDistributedUnit(p *Problem, opts Options) (*DistributedResult, error) {
	return solveDistributed(p, "dist-unit", opts)
}

// SolveDistributedNarrow is the message-passing driver of SolveNarrow.
func SolveDistributedNarrow(p *Problem, opts Options) (*DistributedResult, error) {
	return solveDistributed(p, "dist-narrow", opts)
}

// solve runs a centralized registry algorithm once (core.Solve).
func solve(p *Problem, name string, opts Options) (*Result, error) {
	r, _, err := core.Solve(p, name, opts)
	return r, err
}

// solveDistributed runs a message-passing registry algorithm once and
// attaches its measured network cost.
func solveDistributed(p *Problem, name string, opts Options) (*DistributedResult, error) {
	r, net, err := core.Solve(p, name, opts)
	if err != nil {
		return nil, err
	}
	return &DistributedResult{Result: r, Net: *net}, nil
}

// VerifySolution checks feasibility of a selection against the problem:
// accessibility, one placement per demand, windows, and bandwidth.
func VerifySolution(p *Problem, sel []Instance) error { return verify.Solution(p, sel) }

// TreeWorkload parameterizes GenerateTreeProblem.
type TreeWorkload = gen.TreeConfig

// LineWorkload parameterizes GenerateLineProblem.
type LineWorkload = gen.LineConfig

// GenerateTreeProblem draws a random tree-network problem.
func GenerateTreeProblem(cfg TreeWorkload, rng *rand.Rand) *Problem { return gen.TreeProblem(cfg, rng) }

// GenerateLineProblem draws a random line-network problem.
func GenerateLineProblem(cfg LineWorkload, rng *rand.Rand) *Problem { return gen.LineProblem(cfg, rng) }

// CompiledProblem is the reusable compiled form of one problem: paths,
// critical sets π(d), layer groups and conflict structures built once,
// with every solver available as a method (compile once, solve many).
type CompiledProblem = core.Compiled

// CompileProblem validates and compiles p for repeated solving.
func CompileProblem(p *Problem) (*CompiledProblem, error) { return core.Compile(p, 0) }

// CompileBatch compiles many problems on a bounded worker pool (workers:
// 0 = GOMAXPROCS, 1 = serial) and eagerly builds each model. Results and
// errors come back in input order, one slot per problem; a failed slot is
// a nil CompiledProblem with its error. Each compiled model is
// byte-identical to the one CompileProblem would build serially.
func CompileBatch(ps []*Problem, workers int) ([]*CompiledProblem, []error) {
	return core.CompileBatch(ps, 0, workers)
}

// SolveBatch runs fn over many compiled problems on a bounded worker pool
// (workers: 0 = GOMAXPROCS, 1 = serial), collecting results and errors in
// input order. Solves draw from each compilation's pooled scratch, so a
// warm batch allocates almost nothing beyond its results. Nil slots in cs
// (CompileBatch failures) are skipped.
func SolveBatch(cs []*CompiledProblem, workers int, fn func(i int, c *CompiledProblem) (*Result, error)) ([]*Result, []error) {
	return core.SolveBatch(cs, workers, fn)
}

// Engine is the concurrent scheduling service: a bounded worker pool, a
// compiled-instance LRU cache keyed on a canonical problem hash, full
// result memoization, and structured metrics. cmd/schedserver serves it
// over HTTP; Engine.Handler returns the same API for embedding.
type Engine = service.Engine

// EngineConfig sizes an Engine (zero value = defaults).
type EngineConfig = service.Config

// SolveRequest is one service solve job (inline problem or named
// scenario).
type SolveRequest = service.Request

// SolveResponse is the deterministic solver output for a SolveRequest.
type SolveResponse = service.Response

// BatchResult is one request's outcome from Engine.SolveBatch.
type BatchResult = service.BatchResult

// NewEngine builds a scheduling service engine.
func NewEngine(cfg EngineConfig) *Engine { return service.New(cfg) }

// Algorithms lists the algorithm registry by name: every Solve* entry
// point of this package, as the service and schedtool accept them.
func Algorithms() []string { return service.Algorithms() }

// Session is a dynamic scheduling session (internal/online): open it
// against a fixed network, stream add/remove job events, and resolve
// schedules recomputed by delta recompilation — the compiled rows of
// surviving jobs are copied and only those of arrivals are computed
// (CompiledProblem.WithJobs), at any churn. Schedules are byte-identical
// to compiling and solving the current job set from scratch.
type Session = online.Session

// SessionConfig parameterizes a Session (algorithm, epsilon, seed, job
// limit).
type SessionConfig = online.Config

// SessionJob is one client-visible unit of work: a stable id plus the
// demand payload.
type SessionJob = online.Job

// SessionEvent is one element of a session's input stream
// (op "add" | "remove" | "resolve").
type SessionEvent = online.Event

// OpenSession opens a dynamic session on network's trees or timeline
// (demands already present become the initial job set).
func OpenSession(network *Problem, cfg SessionConfig) (*Session, error) {
	return online.NewSession(network, cfg)
}

// SessionAlgorithms lists the algorithms a Session can dispatch.
func SessionAlgorithms() []string { return online.Algorithms() }

// Scenario is a named, parameterized workload preset tied to a paper
// section or experiment (see internal/scenario).
type Scenario = scenario.Scenario

// ScenarioParams overrides a preset's default sizing.
type ScenarioParams = scenario.Params

// Scenarios returns the preset library in name order.
func Scenarios() []*Scenario { return scenario.All() }

// LookupScenario finds a preset by name.
func LookupScenario(name string) (*Scenario, bool) { return scenario.Get(name) }
