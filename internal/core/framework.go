// Package core implements the paper's primary contribution: the two-phase
// primal-dual framework (§3.2) and the distributed scheduling algorithms
// built on it —
//
//   - the (7+ε)-approximation for unit-height tree networks (§5, Thm 5.3),
//   - the (73+ε) narrow-instance and (80+ε) arbitrary-height tree
//     algorithms (§6, Lemma 6.2, Thm 6.3),
//   - the (4+ε) unit and (23+ε) arbitrary-height line-network algorithms
//     with windows (§7, Thms 7.1–7.2),
//   - the sequential Appendix-A algorithm (∆=2, λ=1; 3-approximation),
//   - the Panconesi–Sozio single-stage baselines, and
//   - exact and greedy reference solvers.
//
// Every algorithm is declared once, as a variant (solvers.go: raise rule,
// schedule and bound), and runs in two interchangeable drivers that
// produce identical outputs for equal seeds: a fast centralized driver
// and a message-passing driver (distributed.go) on the BSP engines of
// internal/dist.
package core

import (
	"fmt"
	"math"
	"slices"

	"treesched/internal/lp"
	"treesched/internal/mis"
	"treesched/internal/model"
	"treesched/internal/obs"
)

// Schedule fixes the first-phase loop structure: epochs (one per layer
// group), stages within each epoch, and the per-stage satisfaction
// thresholds (§5).
type Schedule struct {
	// Epochs is the number of layer groups ℓmax.
	Epochs int
	// Stages is b, the per-epoch stage count.
	Stages int
	// Xi is the stage base: after stage j all group instances are
	// (1−ξ^j)-satisfied. For single-stage (Panconesi–Sozio style)
	// schedules Xi is unused.
	Xi float64
	// Thresholds[j-1] is the satisfaction fraction targeted by stage j;
	// it never decreases with j, which Phase1's stage queue relies on.
	Thresholds []float64
	// Lambda is the slackness guaranteed once the first phase ends: the
	// final threshold.
	Lambda float64
	// MaxSteps caps the while-loop iterations of one stage as a safety
	// net; Lemma 5.1 bounds the true count by 1+log2(pmax/pmin).
	MaxSteps int
	// SingleStage marks Panconesi–Sozio style schedules, whose step
	// count per stage grows with 1/ε rather than Lemma 5.1's bound.
	SingleStage bool
}

// UnitXi returns the paper's stage base for the unit-height rule with
// critical sets of size ≤ delta: ξ = 2∆'/(2∆'+1) with ∆' = ∆+1 — 14/15 for
// trees (∆=6), 8/9 for lines (∆=3).
func UnitXi(delta int) float64 {
	dp := float64(delta + 1)
	return 2 * dp / (2*dp + 1)
}

// NarrowXi returns the stage base for the narrow rule: ξ = c/(c+hmin) with
// c = 1+∆². The choice makes the kill argument of Lemma 5.1 double profits:
// a killed instance satisfies p(d2)/p(d1) ≥ 2ξhmin/((1−ξ)(1+∆²)) ≥ 2.
func NarrowXi(delta int, hmin float64) float64 {
	c := 1 + float64(delta*delta)
	return c / (c + hmin)
}

// NewSchedule builds the multi-stage schedule of §5: stages until
// ξ^b ≤ ε, thresholds 1−ξ^j, λ = 1−ξ^b ≥ 1−ε. The loop that finds b
// computes each ξ^j once, into one slice sized from b ≈ ln ε / ln ξ.
func NewSchedule(m *model.Model, xi, eps float64) Schedule {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("core: epsilon %g outside (0,1)", eps))
	}
	if !(xi > 0 && xi < 1) {
		panic(fmt.Sprintf("core: stage base %g outside (0,1)", xi))
	}
	// The estimate can miss b by a rounding either way; the loop settles
	// it. The presize stops at maxStages, so a ξ a hair below 1 grows the
	// slice as its stages arrive instead of asking for all of them first.
	th := make([]float64, 0, 2+int(min(math.Log(eps)/math.Log(xi), maxStages)))
	for j := 1; ; j++ {
		pow := math.Pow(xi, float64(j))
		th = append(th, 1-pow)
		if pow <= eps {
			break
		}
	}
	return Schedule{
		Epochs:     m.NumGroups,
		Stages:     len(th),
		Xi:         xi,
		Thresholds: th,
		Lambda:     th[len(th)-1],
		MaxSteps:   stepCap(m),
	}
}

// maxStages caps b, the stages per epoch, of a narrow schedule. b grows
// as ln(1/ε)·(1+∆²)/hmin and every stage sweeps its epoch's layer group,
// so a tiny hmin makes a solve run for hours, and once hmin/(1+∆²)
// falls below about 1e-16, ξ rounds to 1 and ξ^b never reaches ε. The
// cap still answers every b the suites reach: at ∆ = 2, b is 69,316 at
// height 1e-4 and about 6.9 million at 1e-6.
const maxStages = 1 << 24

// narrowSchedule is NewSchedule under the narrow rule's stage base, with
// a stage count past maxStages refused as a precondition error before any
// stage runs. ln(1/ξ) = ln(1+hmin/c) is computed without rounding ξ, so
// the count stays finite where ξ itself rounds to 1.
func narrowSchedule(m *model.Model, hmin, eps float64) (Schedule, error) {
	c := 1 + float64(m.Delta*m.Delta)
	if b := math.Log(1/eps) / math.Log1p(hmin/c); b > maxStages {
		return Schedule{}, fmt.Errorf("core: minimum effective height %g needs %.3g stages per epoch, over the limit %d", hmin, b, maxStages)
	}
	return NewSchedule(m, NarrowXi(m.Delta, hmin), eps), nil
}

// NewSingleStageSchedule builds the Panconesi–Sozio style schedule: one
// stage per epoch with a fixed threshold λ (their λ = 1/(5+ε)). The step
// cap is larger than the multi-stage one: single-stage kill chains grow
// profits by only (1−λ)/(λ(∆+1)) per kill — 1+ε/4 on lines — so the chain
// length is O((1/ε)·log(pmax/pmin)) rather than O(log(pmax/pmin)).
func NewSingleStageSchedule(m *model.Model, lambda float64) Schedule {
	return Schedule{
		Epochs:      m.NumGroups,
		Stages:      1,
		Xi:          lambda,
		Thresholds:  []float64{lambda},
		Lambda:      lambda,
		MaxSteps:    64 * stepCap(m),
		SingleStage: true,
	}
}

// FixedSteps returns the paper's deterministic per-stage step count for
// multi-stage schedules ("we can count the number of epochs, stages and
// iterations exactly", §5): Lemma 5.1's 1+log2(pmax/pmin) plus slack for
// the raise tolerance. Single-stage schedules have no such bound and
// return 0.
func (s Schedule) FixedSteps(m *model.Model) int {
	if s.SingleStage {
		return 0
	}
	spread := 1.0
	if m.PMin > 0 {
		spread = m.PMax / m.PMin
	}
	return 3 + int(math.Ceil(math.Log2(spread)))
}

// stepCap returns a generous safety cap on steps per stage: the theory
// bound is 1+log2(pmax/pmin) (Lemma 5.1); exceeding 8× that plus slack
// indicates a bug and aborts the run.
func stepCap(m *model.Model) int {
	spread := 1.0
	if m.PMin > 0 {
		spread = m.PMax / m.PMin
	}
	return 8*(2+int(math.Log2(spread))) + 64
}

// RaiseEvent records one dual raise for trace-based invariant checks.
type RaiseEvent struct {
	Inst  int32
	Delta float64
	Epoch int
	Stage int
	Step  int
}

// Trace optionally captures the full raise history of a run.
type Trace struct {
	Events []RaiseEvent
	// StepsPerStage[k][j] is the number of while-iterations of stage j+1
	// in epoch k+1.
	StepsPerStage [][]int
	// MISPhases totals Luby phases across all steps.
	MISPhases int
}

// Steps returns the total number of steps (framework iterations).
func (t *Trace) Steps() int {
	total := 0
	for _, epoch := range t.StepsPerStage {
		for _, s := range epoch {
			total += s
		}
	}
	return total
}

// StackEntry is one pushed independent set with its schedule position.
type StackEntry struct {
	Epoch, Stage, Step int
	Set                []int32
}

// solveScratch holds every reusable buffer of one centralized solve:
// duals, the Phase1 stage queue and active list, the stack and its set
// arena, the Phase2 feasibility state, and the Luby scratch. A warm
// Compiled pools these per sub-model (see solverModel), so a steady-state
// solve touches the heap only for its Result.
type solveScratch struct {
	duals lp.Duals
	// active flags the members of act, the running stage's unsatisfied
	// instances, for LubyCover; queue is the epoch's min-heap of
	// (stage, instance) keys, each a member's first failing stage as of
	// its last evaluation (see phase1).
	active []bool
	act    []int32
	queue  []uint64
	// setArena backs every StackEntry.Set of one solve; entries are
	// capped sub-slices, so later appends never alias earlier sets. When
	// the arena grows, superseded backing arrays stay referenced by the
	// already-pushed sets until the solve ends.
	setArena []int32
	stack    []StackEntry
	load     []float64
	used     []bool
	selected []int32
	mis      mis.Scratch
}

func newSolveScratch(m *model.Model) *solveScratch {
	return &solveScratch{
		duals: lp.Duals{
			Alpha: make([]float64, m.NumDemands),
			Beta:  make([]float64, m.EdgeSpace),
		},
		active: make([]bool, len(m.Insts)),
		load:   make([]float64, m.EdgeSpace),
		used:   make([]bool, m.NumDemands),
	}
}

// grow returns s resized to length n, reusing its backing array when the
// capacity suffices. Contents are unspecified — every solveScratch field
// is cleared by reset or by its consuming phase before use.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// adapt resizes a scratch pooled for one model so it serves another —
// the delta-recompilation path hands the parent compilation's scratch to
// the child, so a small-churn re-solve keeps its warm allocation profile
// even though every dimension (instances, demands, cliques) may have
// shifted slightly. The Luby scratch sizes itself per call.
func (sc *solveScratch) adapt(m *model.Model) {
	sc.duals.Alpha = grow(sc.duals.Alpha, m.NumDemands)
	sc.duals.Beta = grow(sc.duals.Beta, m.EdgeSpace)
	sc.active = grow(sc.active, len(m.Insts))
	sc.load = grow(sc.load, m.EdgeSpace)
	sc.used = grow(sc.used, m.NumDemands)
}

// reset prepares the scratch for a fresh Phase1 (phase2 clears its own
// buffers). active is all-false whenever a stage loop terminates
// normally; it is cleared anyway so a pooled scratch recovers from an
// aborted (error-path) solve.
func (sc *solveScratch) reset() {
	clear(sc.duals.Alpha)
	clear(sc.duals.Beta)
	clear(sc.active)
	sc.setArena = sc.setArena[:0]
	sc.stack = sc.stack[:0]
}

// stageKey packs (stage, instance) into one heap key whose unsigned order
// is the pair's lexicographic order, so the queue pops a stage's members
// in ascending instance order.
func stageKey(j int, i int32) uint64 { return uint64(j)<<32 | uint64(uint32(i)) }

// stagePush adds key to the min-heap q.
func stagePush(q []uint64, key uint64) []uint64 {
	q = append(q, key)
	for c := len(q) - 1; c > 0; {
		p := (c - 1) / 2
		if q[p] <= q[c] {
			break
		}
		q[p], q[c] = q[c], q[p]
		c = p
	}
	return q
}

// stagePop removes the minimum of the min-heap q.
func stagePop(q []uint64) []uint64 {
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for p := 0; ; {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1] < q[c] {
			c++
		}
		if q[p] <= q[c] {
			break
		}
		q[p], q[c] = q[c], q[p]
		p = c
	}
	return q
}

// phase1 runs the first phase (§3.2/§5) centrally on a scratch supplied
// by the caller (pooled in a solverModel, or freshly built): per epoch and
// stage, repeatedly find a maximal independent set of the still-unsatisfied
// group members (deterministic-priority Luby, seeded), raise them tight,
// and push the set. It returns the dual assignment and the stack, which
// alias the scratch: a pooling caller must finish with them before
// releasing it. A non-nil tel records one span per epoch, whose counters
// sum its stages (stages, steps, raises, Luby MIS phases), so a traced
// solve records O(epochs) spans however many stages a narrow schedule
// runs; the per-stage step counts are CollectTrace's StepsPerStage. tel is
// read-only observation and never alters the computation — with tel == nil
// the loop pays one predictable branch per epoch.
//
// Stages are visited through a queue instead of by rescanning the epoch's
// bucket at each of the b stages. An instance's first failing stage is the
// least j whose threshold it misses (LHS < Thresholds[j-1]·p − Tol);
// thresholds never decrease with j, so it is found by binary search, and
// since raises never decrease any LHS, it only ever moves later. Each
// group member is evaluated once at the epoch's start and queued at its
// first failing stage; the loop jumps to the least queued stage,
// re-evaluates the members queued there, and runs the stage's steps on
// those still failing it (the others are re-queued later, or dropped once
// they satisfy every stage). After each step's raises, every active
// instance is re-evaluated and those now satisfying the stage leave for
// their next failing stage. A queued key is thus a lower bound on its
// member's first failing stage, and the active list is exactly the set a
// full rescan at that stage would find. Every decision compares a full
// lp.LHS of the current duals with the same float threshold, so duals,
// stacks and traces are bit-identical to the full-rescan reference the
// equivalence suite holds it to. The active list, ascending, also seeds
// each step's Luby MIS over the model's own clique cover.
func phase1(m *model.Model, rule lp.Rule, sched Schedule, seed uint64, trace *Trace, tel *obs.Trace, sc *solveScratch) (*lp.Duals, []StackEntry, error) {
	sc.reset()
	duals := &sc.duals
	active := sc.active
	b := sched.Stages
	th := sched.Thresholds[:b]
	stepCounter := uint64(0)

	// One priority closure per solve; prioStep is rebound each step.
	prioStep := uint64(0)
	prio := func(i int32, phase int) float64 {
		return mis.Priority(seed, i, prioStep, phase)
	}
	// failsFrom evaluates instance i's LHS once and returns its first
	// failing stage not before from, or b+1 when it satisfies them all.
	failsFrom := func(i int32, from int) int {
		lhs := lp.LHS(rule, m, duals, i)
		p := m.Insts[i].Profit
		lo, hi := from, b+1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if lhs >= th[mid-1]*p-lp.Tol {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	for k := 1; k <= sched.Epochs; k++ {
		epochSpan := tel.Begin("epoch")
		var group []int32
		if k <= m.GroupInsts.Rows() {
			group = m.GroupInsts.Row(int32(k - 1))
		}
		var stageSteps []int
		if trace != nil {
			stageSteps = make([]int, b)
		}
		var epochSteps, epochRaises, epochPhases int
		q, act := sc.queue[:0], sc.act[:0]
		for _, i := range group {
			if f := failsFrom(i, 1); f <= b {
				q = stagePush(q, stageKey(f, i))
			}
		}
		for len(q) > 0 {
			// Jump to the least queued stage and re-evaluate its members:
			// raises since they were queued may have moved their first
			// failing stage later.
			j := int(q[0] >> 32)
			for len(q) > 0 && int(q[0]>>32) == j {
				i := int32(uint32(q[0]))
				q = stagePop(q)
				if f := failsFrom(i, j); f == j {
					act = append(act, i)
					active[i] = true
				} else if f <= b {
					q = stagePush(q, stageKey(f, i))
				}
			}
			steps := 0
			for len(act) > 0 {
				steps++
				if steps > sched.MaxSteps {
					return nil, nil, fmt.Errorf("core: stage (%d,%d) exceeded %d steps — kill-chain bound violated", k, j, sched.MaxSteps)
				}
				stepCounter++
				prioStep = stepCounter
				set, phases := sc.mis.LubyCover(m, act, active, prio)
				if trace != nil {
					trace.MISPhases += phases
				}
				epochPhases += phases
				epochRaises += len(set)
				// The MIS scratch reuses its output buffer, so the set is
				// copied into the solve's arena before it is retained.
				start := len(sc.setArena)
				sc.setArena = append(sc.setArena, set...)
				set = sc.setArena[start:len(sc.setArena):len(sc.setArena)]
				for _, i := range set {
					delta := lp.Raise(rule, m, duals, i)
					if trace != nil {
						trace.Events = append(trace.Events, RaiseEvent{
							Inst: i, Delta: delta, Epoch: k, Stage: j, Step: steps,
						})
					}
				}
				sc.stack = append(sc.stack, StackEntry{Epoch: k, Stage: j, Step: steps, Set: set})
				// Only the active instances can still fail this stage:
				// the rest satisfied it before the raises, which moved no
				// LHS down.
				keep := act[:0]
				for _, i := range act {
					f := failsFrom(i, j)
					if f == j {
						keep = append(keep, i)
						continue
					}
					active[i] = false
					if f <= b {
						q = stagePush(q, stageKey(f, i))
					}
				}
				act = keep
			}
			epochSteps += steps
			if trace != nil {
				stageSteps[j-1] = steps
			}
		}
		sc.queue, sc.act = q, act
		if trace != nil {
			trace.StepsPerStage = append(trace.StepsPerStage, stageSteps)
		}
		if tel != nil {
			tel.Add(epochSpan, "stages", int64(sched.Stages))
			tel.Add(epochSpan, "steps", int64(epochSteps))
			tel.Add(epochSpan, "raises", int64(epochRaises))
			tel.Add(epochSpan, "mis_phases", int64(epochPhases))
		}
		tel.End(epochSpan)
	}
	return duals, sc.stack, nil
}

// phase2 pops the stack in reverse and greedily adds instances that keep
// the solution feasible (§3.2): at most one instance per demand, and on
// every edge the selected heights fit within capacity. For unit heights
// and unit capacities this is exactly edge-disjointness, and for wide
// instances (h > cap/2) capacity-fit coincides with pairwise conflict, so
// one implementation serves all variants. It runs over caller-supplied
// buffers (pooled in a solveScratch): load and used are cleared here,
// selections are appended to selected (sliced to zero length by the
// caller when reusing).
func phase2(m *model.Model, stack []StackEntry, load []float64, used []bool, selected []int32) []int32 {
	clear(load)
	clear(used)
	for s := len(stack) - 1; s >= 0; s-- {
		for _, i := range stack[s].Set {
			if d := m.Insts[i].Demand; !used[d] && place(m, i, load, m.Paths.Row(i)) {
				used[d] = true
				selected = append(selected, i)
			}
		}
	}
	slices.Sort(selected)
	return selected
}

// place adds instance i's height to the load of its path when it fits
// there, load + h ≤ cap + Tol on every edge, and reports whether it did.
// Like lp.Rule.LHS it reads the load of the t-th edge of m.Paths.Row(i)
// at load[at[t]]: at is the path itself for a load over the whole edge
// space (phase2, Exact, Greedy) and a processor's path slots for its
// phase-2 load in the protocol, so both drivers test a fit with the same
// float operations.
func place(m *model.Model, i int32, load []float64, at []int32) bool {
	h := m.Insts[i].Height
	for t, e := range m.Paths.Row(i) {
		if load[at[t]]+h > m.Cap[e]+lp.Tol {
			return false
		}
	}
	for _, s := range at {
		load[s] += h
	}
	return true
}
