package core

import (
	"fmt"
	"slices"

	"treesched/internal/dist"
	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/mis"
	"treesched/internal/model"
	"treesched/internal/obs"
)

// This file is the shared protocol engine behind every Distributed*
// driver: the first-phase epoch/stage/step loop with its embedded Luby
// MIS subprotocol, the dual-raise announcements, and the reverse-stack
// second phase. A driver contributes only a distProtocol value — name,
// rule, schedule, bound — mirroring how the centralized drivers in
// solvers.go are thin configurations of runPhases.
//
// The per-processor body is a *resumable state machine* (a dist.Proc):
// each Step call consumes the previous collective's result and produces
// the next collective request. Written this way, one protocol text runs on
// both engines behind dist.Run — the sharded worker pool (the default,
// which carries 10^5-processor networks on GOMAXPROCS goroutines and a
// small network on one) and the goroutine-per-processor runtime
// (selected by Options.DistWorkers < 0, the reference semantics and
// benchmark anchor). The collective sequence
// is identical either way, so Stats and selections are byte-identical
// across engines — a tested invariant, like the centralized/distributed
// selection equality.

// Message payloads exchanged by the protocol. Every payload names demand
// instances by id; a processor that learns an instance id can reconstruct
// its path and critical edges from the globally known topology, so each
// payload entry is O(M) bits in the paper's accounting (§5 "Distributed
// Implementation"). All payloads implement dist.Sizer so the runtime can
// tally Stats.Entries.
type (
	// prioPayload announces the sender's still-undecided participating
	// instances and their Luby priorities for the current phase.
	prioPayload struct {
		Insts []int32
		Prios []float64
	}
	// winPayload announces instances that joined the MIS this phase.
	winPayload struct {
		Insts []int32
	}
	// raisePayload announces dual raises: instance ids and their δ; the
	// receivers recompute the β increments from the shared rule.
	raisePayload struct {
		Insts  []int32
		Deltas []float64
	}
	// selPayload announces instances selected in the second phase.
	selPayload struct {
		Insts []int32
	}
)

func (p *prioPayload) PayloadEntries() int  { return len(p.Insts) }
func (p *winPayload) PayloadEntries() int   { return len(p.Insts) }
func (p *raisePayload) PayloadEntries() int { return len(p.Insts) }
func (p *selPayload) PayloadEntries() int   { return len(p.Insts) }

// payloadArena double-buffers each payload type so the hot path sends
// without allocating. Reuse is safe because every next* call produces the
// payload of exactly one collective: a buffer handed to the runtime for
// collective t is truncated no earlier than the node's second-next flip
// of that type, i.e. while preparing collective t+2 — and by then every
// live receiver has finished reading the collective-t payload (receivers
// consume inboxes inside the Step/collective that produces their t+1
// request, which completes before t+2 begins on either engine). Flipping
// a buffer without sending it in the same collective would break this
// argument and race receivers.
type payloadArena struct {
	prioFlip, winFlip, raiseFlip, selFlip uint8

	prio  [2]prioPayload
	win   [2]winPayload
	raise [2]raisePayload
	sel   [2]selPayload
}

func (a *payloadArena) nextPrio() *prioPayload {
	a.prioFlip ^= 1
	p := &a.prio[a.prioFlip]
	p.Insts, p.Prios = p.Insts[:0], p.Prios[:0]
	return p
}

func (a *payloadArena) nextWin() *winPayload {
	a.winFlip ^= 1
	p := &a.win[a.winFlip]
	p.Insts = p.Insts[:0]
	return p
}

func (a *payloadArena) nextRaise() *raisePayload {
	a.raiseFlip ^= 1
	p := &a.raise[a.raiseFlip]
	p.Insts, p.Deltas = p.Insts[:0], p.Deltas[:0]
	return p
}

func (a *payloadArena) nextSel() *selPayload {
	a.selFlip ^= 1
	p := &a.sel[a.selFlip]
	p.Insts = p.Insts[:0]
	return p
}

// distProtocol parameterizes the engine: a distributed driver is nothing
// more than a named (rule, schedule, bound) triple over a compiled model.
type distProtocol struct {
	name  string
	rule  lp.Rule
	sched Schedule
	opts  Options
	bound float64
}

// run executes the protocol on the BSP runtime — communication only
// between processors sharing a resource — and assembles the merged,
// certificate-checked result. Options.DistWorkers is dist.Run's workers
// argument: ≥ 0 runs the sharded worker pool (0 = sized by the network,
// dist.PoolWorkers), < 0 the goroutine-per-processor reference. With
// equal seeds every engine and worker count selects exactly the
// instances the centralized Phase1/Phase2 pair selects — a tested
// invariant.
func (cfg *distProtocol) run(p *instance.Problem, m *model.Model) (*DistributedResult, error) {
	// Fixed-rounds mode: the paper's deterministic accounting. Every node
	// runs exactly fixedSteps steps per stage and fixedPhases Luby phases
	// per step, in lockstep, with no global aggregation at all.
	fixedSteps, fixedPhases := 0, 0
	if cfg.opts.FixedRounds {
		fixedSteps = cfg.sched.FixedSteps(m)
		if fixedSteps == 0 {
			return nil, fmt.Errorf("core: FixedRounds requires a multi-stage schedule")
		}
		// Luby finishes in O(log N) phases w.h.p. (N = mr instances,
		// [14]); exceeding the budget is detected and reported.
		nn := len(m.Insts)
		fixedPhases = 8
		for v := nn; v > 0; v >>= 1 {
			fixedPhases += 4
		}
	}

	dr := localRule(cfg.rule)
	nodes := make([]*nodeState, m.NumDemands)
	machines := make([]*protoEngine, m.NumDemands)
	// mk is called once per processor, possibly concurrently for distinct
	// ids (the pool engine constructs shard-parallel); it touches only
	// per-id state.
	mk := func(u int) dist.Proc {
		e := &protoEngine{
			cfg:         cfg,
			m:           m,
			dr:          dr,
			fixedSteps:  fixedSteps,
			fixedPhases: fixedPhases,
		}
		e.init(u)
		nodes[u] = &e.ns
		machines[u] = e
		return e
	}
	tel := cfg.opts.Telemetry
	var rl *obs.RoundLog
	if tel != nil {
		rl = &obs.RoundLog{}
	}
	sp := tel.Begin("protocol")
	stats := dist.Run(p.CommGraph(), cfg.opts.DistWorkers, rl, mk)
	if tel != nil {
		tel.Add(sp, "rounds", int64(stats.Rounds))
		tel.Add(sp, "aggregations", int64(stats.Aggregations))
		tel.Add(sp, "messages", stats.Messages)
		tel.Add(sp, "entries", stats.Entries)
		tel.AddRounds(rl.Samples)
	}
	tel.End(sp)
	for _, e := range machines {
		if e != nil && e.err != nil {
			return nil, e.err
		}
	}
	sp = tel.Begin("assemble")
	defer tel.End(sp)
	return assembleDistributed(cfg.name, m, cfg.rule, cfg.sched, nodes, stats, cfg.bound)
}

// protoState is the resume point of a protocol machine: which collective
// it is waiting on (psStart before the first request, psDone after
// departure).
type protoState uint8

const (
	psStart    protoState = iota
	psStageAgg            // stage-top "anyone unsatisfied?" aggregate
	psLubyPrio            // Luby round A: priority exchange
	psLubyWin             // Luby round B: winner exchange
	psLubyAgg             // Luby "anyone undecided?" aggregate
	psRaise               // dual-raise announcement exchange
	psPhase2              // one reverse-walk selection exchange
	psDone
)

// protoEngine is the per-processor executor: protocol state plus the
// state-machine position. The scratch fields are reused across steps and
// phases so the steady state allocates nothing. The Luby bookkeeping is
// dense like nodeState: undecided and prio are parallel to ns.mine, and
// participating, phaseWinners and winners hold positions in ns.mine;
// only payloads carry global instance ids. The epoch/stage/step
// counters are per-node state but identical on every node (loop
// terminations are global aggregates or fixed counts), which is what
// lets the priority function and the phase-2 reverse walk agree across
// the network.
type protoEngine struct {
	cfg         *distProtocol
	m           *model.Model
	dr          distRule
	ns          nodeState
	fixedSteps  int
	fixedPhases int

	state protoState
	err   error // terminal protocol error; reported after the run

	k, j        int    // current epoch and stage (1-based)
	steps       int    // steps taken in the current stage
	totalSteps  int    // steps across all finished stages (phase-2 length)
	phase       int    // current Luby phase within the step
	stepCounter uint64 // global step number

	arena         payloadArena
	participating []int32
	undecided     []bool
	prio          []float64
	phaseWinners  []int32
	winners       []int32

	// Phase-2 reverse-walk state.
	p2demandUsed bool
	p2stackTop   int
	p2t          int
}

// init lays out processor u's dense state: its relevant-edge row and the
// row's slot table, the slots of its owned paths, and the β, phase-2
// load, Luby and LHS-cache slices over them, in three allocations. The
// table is sized from the row's length before duplicates are dropped, so
// it is at least twice the row and linear in the owned paths. It runs
// once per processor per solve, inside the protocol: kept on the compiled
// model, the layout would grow every cached model, and no workload solves
// one compiled model twice under a distributed algorithm.
func (e *protoEngine) init(u int) {
	m, ns := e.m, &e.ns
	ns.mine = m.InstsOf.Row(int32(u))
	k, n := len(ns.mine), 0
	for _, i := range ns.mine {
		n += len(m.Paths.Row(i))
	}
	size, shift := tableSize(n)
	ids := make([]int32, 2*n+k+1+size)
	edges := ids[:0:n]
	ns.slots, ns.pathOff, ns.table, ns.shift = ids[n:2*n], ids[2*n:2*n+k+1], ids[2*n+k+1:], shift
	for _, i := range ns.mine {
		edges = append(edges, m.Paths.Row(i)...)
	}
	slices.Sort(edges)
	ns.edges = slices.Compact(edges)
	ns.index()
	at := int32(0)
	for x, i := range ns.mine {
		for _, edge := range m.Paths.Row(i) {
			s, _ := ns.slot(edge)
			ns.slots[at] = int32(s)
			at++
		}
		ns.pathOff[x+1] = at
	}
	r := len(ns.edges)
	vals := make([]float64, 2*r+2*k)
	ns.beta, ns.p2load, e.prio, ns.lhs = vals[:r], vals[r:2*r], vals[2*r:2*r+k], vals[2*r+k:]
	flags := make([]bool, 2*k)
	e.undecided, ns.lhsStale = flags[:k], flags[k:]
	ns.dualsMoved()
}

func (e *protoEngine) conflicts(i, j int32) bool {
	return e.m.Insts[i].Demand == e.m.Insts[j].Demand || e.m.P.Overlap(e.m.Insts[i], e.m.Insts[j])
}

// Step implements dist.Proc: consume the previous collective's result,
// advance the protocol to its next collective, and return the request.
// The transitions mirror the first-phase while-loops and the phase-2
// reverse walk exactly — same collectives, same order, same local
// arithmetic — so the machine is observationally identical to the
// original blocking body on every engine.
func (e *protoEngine) Step(in dist.In) dist.Req {
	switch e.state {
	case psStart:
		e.k, e.j = 1, 1
		if e.k > e.cfg.sched.Epochs {
			return e.beginPhase2()
		}
		return e.stageTop()
	case psStageAgg:
		if !in.Agg {
			return e.advanceStage()
		}
		return e.beginStep()
	case psLubyPrio:
		e.lubyDecide(in.Msgs)
		return e.reqWin()
	case psLubyWin:
		still := e.lubyAbsorb(in.Msgs)
		if e.fixedPhases > 0 {
			// Fixed mode runs exactly fixedPhases lockstep phases: no
			// early exit, no aggregation.
			if e.phase >= e.fixedPhases {
				if still {
					return e.fail(fmt.Errorf("core: Luby exceeded the fixed %d-phase budget (w.h.p. bound missed; reseed)", e.fixedPhases))
				}
				return e.reqRaise()
			}
			e.phase++
			return e.reqPrio()
		}
		e.state = psLubyAgg
		return dist.Req{Op: dist.OpAggregate, Vote: still}
	case psLubyAgg:
		if in.Agg {
			e.phase++
			return e.reqPrio()
		}
		return e.reqRaise()
	case psRaise:
		e.absorbRaises(in.Msgs)
		return e.stageTop()
	case psPhase2:
		e.absorbSelections(in.Msgs)
		e.p2t--
		return e.p2Round()
	default:
		panic("core: Step on a departed protocol machine")
	}
}

// fail departs with a terminal protocol error; the run reports it after
// the network drains.
func (e *protoEngine) fail(err error) dist.Req {
	e.err = err
	e.state = psDone
	return dist.Req{Op: dist.OpDone}
}

// stageTop evaluates the while-condition of stage (k, j): find the owned
// group-k instances still below the stage threshold, then either ask the
// network whether anyone has work (adaptive) or consult the fixed step
// budget (fixed-rounds).
func (e *protoEngine) stageTop() dist.Req {
	threshold := e.cfg.sched.Thresholds[e.j-1]
	e.participating = e.participating[:0]
	for x, i := range e.ns.mine {
		if int(e.m.Group[i]) == e.k &&
			e.ns.lhsOf(e.m, e.dr, x) < threshold*e.m.Insts[i].Profit-lp.Tol {
			e.participating = append(e.participating, int32(x))
		}
	}
	if e.fixedSteps > 0 {
		if e.steps >= e.fixedSteps {
			if len(e.participating) > 0 {
				return e.fail(fmt.Errorf("core: fixed schedule left instances unsatisfied after %d steps in stage (%d,%d)", e.fixedSteps, e.k, e.j))
			}
			return e.advanceStage()
		}
		return e.beginStep()
	}
	e.state = psStageAgg
	return dist.Req{Op: dist.OpAggregate, Vote: len(e.participating) > 0}
}

// advanceStage closes stage (k, j) — banking its step count for the
// phase-2 walk — and moves to the next (epoch, stage) tuple, or into the
// second phase after the last.
func (e *protoEngine) advanceStage() dist.Req {
	e.totalSteps += e.steps
	e.steps = 0
	e.j++
	if e.j > e.cfg.sched.Stages {
		e.j = 1
		e.k++
	}
	if e.k > e.cfg.sched.Epochs {
		return e.beginPhase2()
	}
	return e.stageTop()
}

// beginStep opens one step of the stage loop: bump the global step
// counter, reset the Luby state over the participating instances, and
// issue the first priority round.
func (e *protoEngine) beginStep() dist.Req {
	e.steps++
	if e.steps > e.cfg.sched.MaxSteps {
		return e.fail(fmt.Errorf("core: distributed stage (%d,%d) exceeded %d steps", e.k, e.j, e.cfg.sched.MaxSteps))
	}
	e.stepCounter++
	clear(e.undecided)
	for _, x := range e.participating {
		e.undecided[x] = true
	}
	e.winners = e.winners[:0]
	e.phase = 1
	return e.reqPrio()
}

// reqPrio issues Luby round A: announce undecided instances and their
// phase priorities (silent when none remain). prio is read only at
// undecided positions, all of which this call sets.
func (e *protoEngine) reqPrio() dist.Req {
	pp := e.arena.nextPrio()
	for _, x := range e.participating {
		if e.undecided[x] {
			i := e.ns.mine[x]
			pr := mis.Priority(e.cfg.opts.Seed, i, e.stepCounter, e.phase)
			e.prio[x] = pr
			pp.Insts = append(pp.Insts, i)
			pp.Prios = append(pp.Prios, pr)
		}
	}
	e.state = psLubyPrio
	if len(pp.Insts) > 0 {
		return dist.Req{Op: dist.OpExchange, Payload: pp}
	}
	return dist.Req{Op: dist.OpExchange}
}

// lubyDecide consumes round A's inbox, read in place: decide which owned
// undecided instances beat every conflicting undecided instance, owned or
// announced by a neighbor, by (priority, id).
func (e *protoEngine) lubyDecide(in []dist.Message) {
	e.phaseWinners = e.phaseWinners[:0]
	for _, x := range e.participating {
		if e.undecided[x] && e.beatsAll(x, in) {
			e.phaseWinners = append(e.phaseWinners, x)
		}
	}
}

// beatsAll reports whether owned instance mine[x] precedes, by (priority,
// id), every other undecided owned instance and every conflicting
// candidate of round A's inbox.
func (e *protoEngine) beatsAll(x int32, in []dist.Message) bool {
	i, pr := e.ns.mine[x], e.prio[x]
	for y, o := range e.ns.mine {
		if int32(y) != x && e.undecided[y] &&
			(e.prio[y] < pr || (e.prio[y] == pr && o < i)) {
			return false
		}
	}
	for _, msg := range in {
		pl := msg.Payload.(*prioPayload)
		for z, c := range pl.Insts {
			if e.conflicts(i, c) && (pl.Prios[z] < pr || (pl.Prios[z] == pr && c < i)) {
				return false
			}
		}
	}
	return true
}

// reqWin issues Luby round B: announce this phase's winners.
func (e *protoEngine) reqWin() dist.Req {
	e.state = psLubyWin
	if len(e.phaseWinners) > 0 {
		wp := e.arena.nextWin()
		for _, x := range e.phaseWinners {
			wp.Insts = append(wp.Insts, e.ns.mine[x])
		}
		return dist.Req{Op: dist.OpExchange, Payload: wp}
	}
	return dist.Req{Op: dist.OpExchange}
}

// lubyAbsorb consumes round B's inbox, read in place: commit own
// winners, exclude dominated instances, and report whether any owned
// instance is still undecided.
func (e *protoEngine) lubyAbsorb(in []dist.Message) (stillAny bool) {
	for _, x := range e.phaseWinners {
		e.undecided[x] = false
		e.winners = append(e.winners, x)
	}
	for _, x := range e.participating {
		if e.undecided[x] && e.dominated(e.ns.mine[x], in) {
			e.undecided[x] = false
		}
	}
	for _, x := range e.participating {
		if e.undecided[x] {
			return true
		}
	}
	return false
}

// dominated reports whether instance i conflicts with a winner of this
// phase: an own one or one announced in round B's inbox.
func (e *protoEngine) dominated(i int32, in []dist.Message) bool {
	for _, x := range e.phaseWinners {
		if e.conflicts(i, e.ns.mine[x]) {
			return true
		}
	}
	for _, msg := range in {
		for _, w := range msg.Payload.(*winPayload).Insts {
			if e.conflicts(i, w) {
				return true
			}
		}
	}
	return false
}

// reqRaise closes the step: raise the elected winners tight and announce
// the raises. The MIS picks at most one instance per demand (same-demand
// instances conflict), so winners has length ≤ 1 here.
func (e *protoEngine) reqRaise() dist.Req {
	rp := e.arena.nextRaise()
	for _, x := range e.winners {
		delta := e.ns.raiseLocal(e.m, e.dr, int(x))
		e.ns.stack = append(e.ns.stack, x)
		e.ns.raiseSteps = append(e.ns.raiseSteps, int(e.stepCounter))
		rp.Insts = append(rp.Insts, e.ns.mine[x])
		rp.Deltas = append(rp.Deltas, delta)
	}
	e.state = psRaise
	if len(rp.Insts) > 0 {
		return dist.Req{Op: dist.OpExchange, Payload: rp}
	}
	return dist.Req{Op: dist.OpExchange}
}

// absorbRaises folds the neighbors' announced raises into the local β
// copies.
func (e *protoEngine) absorbRaises(in []dist.Message) {
	for _, msg := range in {
		pl := msg.Payload.(*raisePayload)
		for x, inst := range pl.Insts {
			e.ns.applyRemoteRaise(e.m, e.dr, inst, pl.Deltas[x])
		}
	}
}

// beginPhase2 enters the distributed reverse-stack selection. All nodes
// observed identical step counts (the loop terminations are global
// aggregates or fixed budgets), so they walk the same global step
// sequence in reverse: one communication round per step. Feasibility is
// tracked in ns.p2load on the node's relevant edges from its own
// selections and the neighbors' announcements.
func (e *protoEngine) beginPhase2() dist.Req {
	e.p2stackTop = len(e.ns.stack) - 1
	e.p2t = e.totalSteps
	return e.p2Round()
}

// p2Round plays reverse step t: pop the stack if this node raised at t,
// keep the instance when it still fits, announce it — then wait for the
// peers' announcements of the same step. After step 1 the walk is done
// and the processor departs.
func (e *protoEngine) p2Round() dist.Req {
	if e.p2t < 1 {
		e.state = psDone
		return dist.Req{Op: dist.OpDone}
	}
	announce := int32(-1)
	if e.p2stackTop >= 0 && e.ns.raiseSteps[e.p2stackTop] == e.p2t {
		x := int(e.ns.stack[e.p2stackTop])
		e.p2stackTop--
		i := e.ns.mine[x]
		h := e.m.Insts[i].Height
		load := e.ns.p2load
		fits := !e.p2demandUsed
		if fits {
			for _, s := range e.ns.pathSlots(x) {
				if load[s]+h > e.m.Cap[e.ns.edges[s]]+lp.Tol {
					fits = false
					break
				}
			}
		}
		if fits {
			e.p2demandUsed = true
			for _, s := range e.ns.pathSlots(x) {
				load[s] += h
			}
			e.ns.selected = append(e.ns.selected, i)
			announce = i
		}
	}
	e.state = psPhase2
	if announce >= 0 {
		sp := e.arena.nextSel()
		sp.Insts = append(sp.Insts, announce)
		return dist.Req{Op: dist.OpExchange, Payload: sp}
	}
	return dist.Req{Op: dist.OpExchange}
}

// absorbSelections folds the peers' phase-2 announcements into the load
// of this node's relevant edges; a peer's edge off the row is skipped.
func (e *protoEngine) absorbSelections(in []dist.Message) {
	for _, msg := range in {
		for _, inst := range msg.Payload.(*selPayload).Insts {
			h := e.m.Insts[inst].Height
			for _, edge := range e.m.Paths.Row(inst) {
				if s, ok := e.ns.slot(edge); ok {
					e.ns.p2load[s] += h
				}
			}
		}
	}
}
