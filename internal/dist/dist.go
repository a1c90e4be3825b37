// Package dist is a synchronous message-passing (BSP) simulator: the
// execution substrate of the paper's distributed protocols (§2 "the
// distributed setting", §5 "Distributed Implementation"). Processors are
// resumable step machines (Proc) that advance in barrier-synchronized
// rounds; in each round a processor may hand one payload to the runtime,
// which delivers it to every neighbor in the communication graph before
// any processor starts the next round. Run is the one entry point. It
// executes the machines on the sharded worker-pool engine (engine.go) or
// on the goroutine-per-processor reference engine (the blocking
// coordinator in dist.go), with identical results.
//
// # Cost accounting
//
// Stats measures the communication complexity currency of the paper:
//
//   - Rounds counts synchronous communication rounds — one per
//     exchange barrier. This is the quantity bounded by
//     Theorem 5.3's O(Time(MIS)·log m·log pmax/ε) round complexity.
//   - Messages counts point-to-point deliveries: a payload sent by a
//     processor of degree d costs d messages. Silent participation (an
//     exchange with a nil payload) costs a round but no messages.
//   - Aggregations counts global boolean OR reductions (OpAggregate).
//     The paper realizes these as convergecasts over a spanning tree at
//     O(diameter) rounds each; they are tallied separately so both
//     accountings can be reported. The fixed-rounds schedules of §5
//     eliminate them entirely.
//   - Entries counts the payload entries delivered (instance ids or
//     (id, value) pairs). Each entry is O(log m + log pmax) bits, so
//     Entries is the simulator's proxy for total bits on the wire.
//     Payloads opt in by implementing Sizer; opaque payloads count 0.
//
// All four counters are deterministic functions of the protocol and its
// seed: delivery order within a round is fixed (ascending sender id) and
// barriers hide goroutine scheduling, so equal seeds yield byte-identical
// Stats and — for the core protocols — exactly the centralized solver's
// selections.
//
// # Early exit
//
// A processor may depart at any point (OpDone, e.g. on a protocol
// error). Departed processors leave the barrier group: they send nothing,
// receive nothing (deliveries to them are neither made nor counted), vote
// false, and the remaining processors keep advancing — no deadlock.
package dist

import (
	"fmt"
	"sync"
	"time"

	"treesched/internal/obs"
)

// Message is one delivered payload.
type Message struct {
	// From is the sending processor's id.
	From int32
	// Payload is the value the sender exchanged.
	// Received payloads are shared, not copied: receivers must treat them
	// as read-only and must not retain them past their next collective
	// call (senders may reuse payload buffers two rounds later).
	Payload any
}

// Sizer lets a payload report how many entries it carries for the
// Stats.Entries bit-complexity proxy.
type Sizer interface {
	// PayloadEntries returns the number of entries (ids or (id, value)
	// pairs) in the payload.
	PayloadEntries() int
}

// Stats is the measured network cost of one Run. See the package comment
// for the accounting rules.
type Stats struct {
	// Rounds is the number of synchronous communication rounds (exchange
	// barriers).
	Rounds int
	// Messages is the number of point-to-point payload deliveries.
	Messages int64
	// Aggregations is the number of global boolean OR reductions.
	Aggregations int
	// Entries is the total number of payload entries delivered.
	Entries int64
}

// Run executes one Proc per processor of the communication graph adj
// (adjacency lists over processor ids, read in ascending order, so
// delivery order never depends on how the caller ordered neighbors;
// ascending rows are used without a copy, so adj must not change while
// Run executes) and returns the measured network cost.
//
// workers selects the engine. workers ≥ 0 runs the sharded worker pool
// on PoolWorkers(n, workers) goroutines: min(workers, n) for a positive
// count, and for 0 one worker per minShard processors, at most
// GOMAXPROCS. workers < 0 runs the goroutine-per-processor reference
// engine, the blocking coordinator that every pool execution is tested
// against. Stats and every processor's observation stream are identical
// on both engines at any worker count.
//
// A non-nil rl receives one obs.RoundSample per completed collective:
// kind, messages, entries, and the wall time since the previous
// completion. Only that wall time varies between runs and engines, and
// a nil rl costs one pointer check per round.
func Run(adj [][]int32, workers int, rl *obs.RoundLog, mk func(u int) Proc) Stats {
	if workers < 0 {
		return runBlocking(adj, rl, func(api *blockingAPI) { api.drive(mk(api.id)) })
	}
	return runPool(newLocalTransport(adj), workers, rl, mk)
}

// blockingAPI is a processor's handle to the reference engine, valid
// only inside the body passed to runBlocking. It is the natural way to
// write a protocol — blocking collective calls — and the form the
// reference engine's own tests are written in; Run drives Procs through
// it with drive.
type blockingAPI struct {
	id int
	c  *coordinator
}

// ID returns the processor id (an index into the adjacency lists; for the
// scheduling protocols, the demand/processor id).
func (a *blockingAPI) ID() int { return a.id }

// Broadcast sends payload to every neighbor and returns the messages
// received this round, in ascending sender order. It blocks until every
// live processor has entered the round. The returned slice and the
// received payloads are only valid until the processor's next collective
// call.
func (a *blockingAPI) Broadcast(payload any) []Message {
	if payload == nil {
		panic("dist: Broadcast requires a payload; use Exchange(nil) to stay silent")
	}
	msgs, _ := a.c.collective(a.id, opExchange, payload, false)
	return msgs
}

// Exchange participates in one communication round, sending payload to
// every neighbor if non-nil and nothing otherwise, and returns the
// messages received. Exchange(nil) is how a processor with nothing to say
// stays in lockstep with its peers.
func (a *blockingAPI) Exchange(payload any) []Message {
	msgs, _ := a.c.collective(a.id, opExchange, payload, false)
	return msgs
}

// Aggregate performs a global boolean OR over all live processors: it
// returns true iff any live processor voted true this round. Every live
// processor must call Aggregate in the same round (the protocols use it
// as their loop-termination test).
func (a *blockingAPI) Aggregate(vote bool) bool {
	_, r := a.c.collective(a.id, opAggregate, nil, vote)
	return r
}

// drive runs one resumable processor to completion on the blocking
// engine, issuing each requested collective as the matching call.
func (a *blockingAPI) drive(p Proc) {
	var in In
	for {
		req := p.Step(in)
		switch req.Op {
		case OpDone:
			return
		case OpExchange:
			in = In{Msgs: a.Exchange(req.Payload)}
		case OpAggregate:
			in = In{Agg: a.Aggregate(req.Vote)}
		default:
			panic(fmt.Sprintf("dist: invalid OpKind %d", req.Op))
		}
	}
}

// runBlocking is the reference engine: body runs once per processor of
// adj, each on its own goroutine, and the coordinator's barrier completes
// every collective. A non-nil rl is sampled exactly as Run documents.
func runBlocking(adj [][]int32, rl *obs.RoundLog, body func(*blockingAPI)) Stats {
	tr := newLocalTransport(adj)
	n := len(tr.adj)
	if n == 0 {
		return Stats{}
	}
	c := newCoordinator(tr, n)
	c.observe(rl)
	var wg sync.WaitGroup
	for u := 0; u < n; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			defer c.depart(u)
			body(&blockingAPI{id: u, c: c})
		}(u)
	}
	wg.Wait()
	return c.stats
}

// opKind tags the collective operation a round performs; mixing kinds in
// one round is a protocol bug and panics.
type opKind uint8

const (
	opNone opKind = iota
	opExchange
	opAggregate
)

// coordinator implements the barrier: processors entering a collective
// deposit their contribution and block; the last arrival completes the
// round — one batched deliver call for an exchange, one OR for
// an aggregation — and releases everyone. No per-message channel sends:
// the whole round is two lock acquisitions per processor plus a single
// delivery pass.
type coordinator struct {
	tr *localTransport

	mu      sync.Mutex
	cond    *sync.Cond
	waiting int    // processors blocked in the current collective
	live    int    // processors that have not returned from their body
	seq     uint64 // completed-collective counter; release condition
	kind    opKind

	out       []any       // per-processor outbox for the current round
	in        [][]Message // per-processor inboxes, backing arrays reused
	alive     []bool      // alive[u] false once processor u departed
	vote      bool        // running OR of the current aggregation
	aggResult bool        // result of the last completed aggregation

	stats Stats
	roundClock
}

// roundClock is the round log of either engine: rl, when non-nil,
// receives one sample per completed collective, and lastMark anchors each
// sample's StepNs at the previous completion. Each engine samples where a
// collective completes, with every processor parked, so both append their
// samples in the same order.
type roundClock struct {
	rl       *obs.RoundLog
	lastMark time.Time
}

// observe attaches a round log before the first round.
func (c *roundClock) observe(rl *obs.RoundLog) {
	c.rl = rl
	if rl != nil {
		c.lastMark = time.Now() //schedlint:statsonly anchors RoundSample.StepNs; never read by solver state
	}
}

// sample appends one round sample. The caller has checked rl != nil, so
// the unobserved path never reads the clock.
func (c *roundClock) sample(kind string, msgs, entries int64) {
	now := time.Now() //schedlint:statsonly feeds RoundSample.StepNs telemetry only; rounds/messages are clock-free
	c.rl.Add(obs.RoundSample{
		Kind:     kind,
		Messages: msgs,
		Entries:  entries,
		StepNs:   now.Sub(c.lastMark).Nanoseconds(),
	})
	c.lastMark = now
}

func newCoordinator(tr *localTransport, n int) *coordinator {
	c := &coordinator{
		tr:    tr,
		live:  n,
		out:   make([]any, n),
		in:    make([][]Message, n),
		alive: make([]bool, n),
	}
	for u := range c.alive {
		c.alive[u] = true
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *coordinator) collective(id int, kind opKind, payload any, vote bool) ([]Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kind == opNone {
		c.kind = kind
	} else if c.kind != kind {
		panic("dist: processors issued mismatched collective operations in one round")
	}
	switch kind {
	case opExchange:
		c.out[id] = payload
	case opAggregate:
		c.vote = c.vote || vote
	}
	seq := c.seq
	c.waiting++
	if c.waiting == c.live {
		c.finishRound()
	} else {
		for c.seq == seq {
			c.cond.Wait()
		}
	}
	return c.in[id], c.aggResult
}

// finishRound completes the pending collective. Caller holds c.mu.
func (c *coordinator) finishRound() {
	switch c.kind {
	case opExchange:
		c.stats.Rounds++
		msgs, entries := c.tr.deliver(c.out, c.in, c.alive)
		c.stats.Messages += msgs
		c.stats.Entries += entries
		for i := range c.out {
			c.out[i] = nil
		}
		if c.rl != nil {
			c.sample("exchange", msgs, entries)
		}
	case opAggregate:
		c.stats.Aggregations++
		c.aggResult = c.vote
		c.vote = false
		if c.rl != nil {
			c.sample("aggregate", 0, 0)
		}
	}
	c.kind = opNone
	c.waiting = 0
	c.seq++
	c.cond.Broadcast()
}

// depart removes a processor whose body returned from the barrier group.
// If everyone else is already blocked on the current collective, the
// departure is what completes it.
//
// Audited edge case (pinned by TestDepartureVoteRace, on both engines):
// a processor may return between a peer's deposit and finishRound. The
// deposited contribution is safe — votes accumulate in c.vote and
// payloads in c.out under c.mu, and finishRound reads them under the
// same lock no matter who triggers it — and waiters cannot strand: every
// depart re-evaluates waiting == live after decrementing, so the last
// live depositor is always released either by a later arrival or by the
// departure itself. A departing processor that never deposited simply
// counts as a false vote / silent sender, per the package contract.
func (c *coordinator) depart(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live--
	c.alive[id] = false
	c.out[id] = nil
	c.in[id] = nil
	if c.live > 0 && c.waiting == c.live {
		c.finishRound()
	}
}
