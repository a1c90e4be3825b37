package dist

// The sharded worker-pool BSP engine, Run's default: the scale substrate
// beside the goroutine-per-processor reference engine in dist.go. The
// blocking runtime is the natural way to *write* a protocol, but at the
// network sizes where the paper's O(log m) round bounds matter (10^5
// processors, cf. the SINR link-scheduling benchmarks of Pei–Kumar and
// Halldórsson–Mitra) it drowns in goroutine stacks and a single contended
// barrier mutex. Here a processor is instead a *resumable step function*
// (Proc): W workers each own one contiguous shard of processors and
// advance them cooperatively, one Step call per processor per collective,
// so a whole network runs on W ≤ GOMAXPROCS goroutines (PoolWorkers: one
// per minShard processors, so a small network runs on one).
//
// # Round structure and the two-level barrier
//
// One collective (one "superstep") is:
//
//	phase A (step)     each worker resumes its shard's live processors
//	                   and accumulates a shard summary: the collective
//	                   kind, the shard's vote-OR, its sender list, its
//	                   live count. This is the per-shard barrier level —
//	                   pure sequential accumulation, no locks.
//	barrier 1          the last worker to arrive combines the shard
//	                   summaries: checks the kinds agree, resolves the
//	                   global aggregate OR, concatenates the sender list,
//	                   bumps Rounds/Aggregations.
//	phase B (deliver)  exchange rounds only: each worker rebuilds the
//	                   inboxes of its own shard, in its own arena,
//	                   reading the (now frozen) global outbox vector.
//	barrier 2          the last worker sums the per-shard message and
//	                   entry counts into Stats.
//
// Aggregate rounds skip phase B and barrier 2. Workers only rendezvous at
// the two barriers, so a round costs O(messages/P + shard size) per
// worker plus two barrier crossings of W parties — not n lock
// acquisitions of one mutex.
//
// # Determinism
//
// The engine is observationally identical to running the same Procs on the
// blocking reference engine (Run with workers < 0), and that equivalence
// is tested: shards partition the id space contiguously, each worker steps
// its shard in ascending id order, delivery produces ascending-sender
// inboxes, and all cross-shard combination (votes, message counts) is
// order-independent (OR and sums). Stats and every processor's observation
// stream are byte-identical across engines, worker counts and runs.
//
// # Departure
//
// A Proc departs by returning Req{Op: OpDone} — the pooled analogue of
// returning from the blocking body. Departure semantics mirror the
// blocking coordinator exactly (see the dist_test.go departure race
// tests, which pin them on both engines): a departed processor sends
// nothing, receives nothing, votes false, and never blocks the round —
// its departure is processed at its step slot, before the barrier, so the
// round completes with precisely the surviving participants.

import (
	"fmt"
	"runtime"
	"sync"

	"treesched/internal/obs"
)

// OpKind names the collective operation a resumable processor requests.
type OpKind uint8

const (
	// OpDone departs: the processor's body is finished. Terminal.
	OpDone OpKind = iota
	// OpExchange participates in a communication round; a nil Payload
	// stays silent.
	OpExchange
	// OpAggregate contributes Vote to a global boolean OR.
	OpAggregate
)

// Req is a processor's contribution to its next collective: an exchange
// payload, an aggregate vote, or departure, expressed as a value.
type Req struct {
	Op      OpKind
	Payload any  // OpExchange: the payload to send; nil = silent
	Vote    bool // OpAggregate: the processor's vote
}

// In carries the result of the previous collective into the next Step
// call. Exactly one field is meaningful, per the previous Req's kind; the
// first Step of a processor receives the zero In.
type In struct {
	// Msgs is the inbox of the previous exchange, ascending sender order.
	// Valid only for the duration of the Step call: the backing arena is
	// rewritten by the next delivery.
	Msgs []Message
	// Agg is the result of the previous aggregation.
	Agg bool
}

// Proc is a resumable processor body: the runtime calls Step once per
// collective, handing it the previous collective's result and receiving
// the next request. Step must not retain In.Msgs or the received payloads
// past its return (the sharing contract of Message), and must not block.
type Proc interface {
	Step(in In) Req
}

// minShard is the fewest processors the default rule gives each pool
// worker. A second worker costs two barrier crossings per collective and
// splits a round that one core finishes in microseconds, so it pays only
// once each shard carries real work: on a 2-vCPU host, two workers ran
// 40–640-processor networks 1.03–1.61× slower than one (1.29× on
// fresh-pair's 160-processor problem), broke even between 2,000 and
// 4,000 processors and won from 8,000 on (EXPERIMENTS.md E26).
const minShard = 2000

// PoolWorkers returns the number of goroutines the pool engine runs a
// network of n processors on, for Run's workers argument ≥ 0: an explicit
// count is capped at n, and 0 gives each worker at least minShard
// processors, min(GOMAXPROCS, max(1, n/minShard)). It is the engine's own
// rule, exported so a harness can record the worker count that ran.
func PoolWorkers(n, workers int) int {
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), max(1, n/minShard))
	}
	return min(workers, n)
}

// runPool executes one Proc per processor of tr's communication graph
// on the sharded worker-pool engine, on exactly PoolWorkers(n, workers)
// goroutines.
func runPool(tr *localTransport, workers int, rl *obs.RoundLog, mk func(u int) Proc) Stats {
	n := len(tr.adj)
	if n == 0 {
		return Stats{}
	}
	e := newPoolEngine(tr, n, PoolWorkers(n, workers), mk)
	e.observe(rl)
	e.run()
	return e.stats
}

// shardState is one worker's private slice of the engine plus its round
// summary. Workers write only their own shard's entries of the global
// vectors between barriers, so no field here is ever contended.
type shardState struct {
	lo, hi int // processor id range [lo, hi)
	live   int // processors of the shard that have not departed

	kind    opKind  // collective kind stepped this round (opNone if none live)
	vote    bool    // OR of the shard's aggregate votes this round
	senders []int32 // shard's non-silent exchangers this round, ascending

	msgs, entries int64 // per-round delivery counts (phase B)

	arena inboxArena // the shard's inbox storage, reused across rounds
}

// poolEngine is the shared state of one pool execution.
type poolEngine struct {
	tr *localTransport

	n       int
	workers int
	procs   []Proc
	alive   []bool
	out     []any
	in      [][]Message
	shards  []shardState

	bar barrier

	// Round state, written only by the barrier-1 leader and read by all
	// workers after the barrier (the barrier publishes the writes).
	roundKind opKind
	prevKind  opKind
	aggResult bool
	liveTotal int
	finished  bool
	senders   []int32 // global ascending sender list of the round

	stats Stats
	// Aggregates sample at barrier 1 (combine), exchanges at barrier 2
	// (tally), once the round's delivery counts exist; both leader
	// actions run with every worker parked.
	roundClock
}

func newPoolEngine(tr *localTransport, n, workers int, mk func(u int) Proc) *poolEngine {
	e := &poolEngine{
		tr:      tr,
		n:       n,
		workers: workers,
		procs:   make([]Proc, n),
		alive:   make([]bool, n),
		out:     make([]any, n),
		in:      make([][]Message, n),
		shards:  make([]shardState, workers),
	}
	e.bar.init(workers)
	e.liveTotal = n
	for u := 0; u < n; u++ {
		e.alive[u] = true
	}
	// Contiguous shards, sizes differing by at most one. Construction of
	// the Procs happens on the owning worker (concurrently), so mk must be
	// safe for concurrent calls with distinct u — the protocol engines
	// only touch per-processor state there.
	per, extra := n/workers, n%workers
	lo := 0
	for w := range e.shards {
		size := per
		if w < extra {
			size++
		}
		e.shards[w] = shardState{lo: lo, hi: lo + size, live: size}
		lo += size
	}
	e.mkProcs(mk)
	return e
}

// mkProcs constructs the per-processor machines shard-parallel: at 10^5
// processors construction is real work (per-node state allocation).
func (e *poolEngine) mkProcs(mk func(u int) Proc) {
	var wg sync.WaitGroup
	for w := range e.shards {
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			for u := sh.lo; u < sh.hi; u++ {
				e.procs[u] = mk(u)
			}
		}(&e.shards[w])
	}
	wg.Wait()
}

func (e *poolEngine) run() {
	var wg sync.WaitGroup
	for w := range e.shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.worker(w)
		}(w)
	}
	wg.Wait()
}

// worker drives one shard until every processor in the network departed.
func (e *poolEngine) worker(w int) {
	sh := &e.shards[w]
	for {
		// Phase A: resume the shard's live processors in id order.
		kind := opNone
		vote := false
		sh.senders = sh.senders[:0]
		prev := e.prevKind
		for u := sh.lo; u < sh.hi; u++ {
			if !e.alive[u] {
				continue
			}
			var in In
			switch prev {
			case opExchange:
				in.Msgs = e.in[u]
			case opAggregate:
				in.Agg = e.aggResult
			}
			req := e.procs[u].Step(in)
			switch req.Op {
			case OpDone:
				e.alive[u] = false
				e.out[u] = nil
				e.in[u] = nil
				sh.live--
			case OpExchange:
				if kind == opNone {
					kind = opExchange
				} else if kind != opExchange {
					panic("dist: processors issued mismatched collective operations in one round")
				}
				e.out[u] = req.Payload
				if req.Payload != nil {
					sh.senders = append(sh.senders, int32(u))
				}
			case OpAggregate:
				if kind == opNone {
					kind = opAggregate
				} else if kind != opAggregate {
					panic("dist: processors issued mismatched collective operations in one round")
				}
				vote = vote || req.Vote
			default:
				panic(fmt.Sprintf("dist: invalid OpKind %d", req.Op))
			}
		}
		sh.kind, sh.vote = kind, vote

		e.bar.await(e.combine)
		if e.finished {
			return
		}
		if e.roundKind != opExchange {
			continue // aggregate rounds have no delivery phase
		}

		// Phase B: shard-parallel delivery into the shard's arena.
		sh.msgs, sh.entries = e.tr.deliverShard(e.out, e.senders, e.alive, e.in, &sh.arena, sh.lo, sh.hi)
		e.bar.await(e.tally)
	}
}

// combine is the barrier-1 leader action: fold the shard summaries into
// the round decision. Runs with every worker parked, so it may touch
// anything.
func (e *poolEngine) combine() {
	kind := opNone
	vote := false
	live := 0
	for w := range e.shards {
		sh := &e.shards[w]
		live += sh.live
		if sh.kind == opNone {
			continue
		}
		if kind == opNone {
			kind = sh.kind
		} else if kind != sh.kind {
			panic("dist: processors issued mismatched collective operations in one round")
		}
		vote = vote || sh.vote
	}
	e.liveTotal = live
	e.roundKind = kind
	e.prevKind = kind
	switch kind {
	case opNone:
		// Nobody requested anything: the network has fully departed.
		e.finished = true
	case opExchange:
		e.stats.Rounds++
		e.senders = e.senders[:0]
		for w := range e.shards {
			e.senders = append(e.senders, e.shards[w].senders...)
		}
	case opAggregate:
		e.stats.Aggregations++
		e.aggResult = vote
		if e.rl != nil {
			e.sample("aggregate", 0, 0)
		}
	}
}

// tally is the barrier-2 leader action: sum the per-shard delivery
// counts of an exchange round.
func (e *poolEngine) tally() {
	var msgs, entries int64
	for w := range e.shards {
		msgs += e.shards[w].msgs
		entries += e.shards[w].entries
	}
	e.stats.Messages += msgs
	e.stats.Entries += entries
	if e.rl != nil {
		e.sample("exchange", msgs, entries)
	}
}

// barrier is the global rendezvous of the two-level scheme: W parties
// (one per shard), the last arrival runs the leader action under the
// barrier lock and releases the rest. Reused every phase; generation
// counting handles spurious wakeups.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	gen     uint64
}

func (b *barrier) init(parties int) {
	b.parties = parties
	b.cond = sync.NewCond(&b.mu)
}

// await blocks until all parties have arrived; the last arrival runs
// leader (if non-nil) before anyone proceeds. The mutex-protected
// generation bump publishes the leader's writes to every released party.
func (b *barrier) await(leader func()) {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.parties {
		if leader != nil {
			leader()
		}
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
