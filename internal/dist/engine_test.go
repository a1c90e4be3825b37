package dist

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// mirrorProc is the resumable form of TestDeterminism's blocking body:
// rounds exchange rounds (silent every third slot), folding received ids
// into a digest, then aggRounds aggregates (voting on round parity),
// then departure. It exercises every Req kind and the In plumbing.
type mirrorProc struct {
	id, rounds, aggRounds int
	r                     int
	digest                int64
	aggDigest             int64
	// payloads is double-buffered per the Message sharing contract:
	// a sent buffer may not be reused until two collectives later.
	payloads [2]idsPayload
	done     bool
}

func (p *mirrorProc) Step(in In) Req {
	if p.r > 0 && p.r <= p.rounds {
		for _, m := range in.Msgs {
			pl := m.Payload.(*idsPayload)
			p.digest += int64(m.From) + int64(pl.Ids[0])*3 + int64(pl.Ids[1])
		}
	}
	if p.r > p.rounds {
		p.aggDigest = p.aggDigest*2 + int64(boolToInt(in.Agg))
	}
	if p.r == p.rounds+p.aggRounds {
		p.done = true
		return Req{Op: OpDone}
	}
	r := p.r
	p.r++
	if r < p.rounds {
		if (p.id+r)%3 == 0 {
			return Req{Op: OpExchange} // silent round
		}
		pl := &p.payloads[r&1]
		pl.Ids = append(pl.Ids[:0], int32(p.id), int32(r))
		return Req{Op: OpExchange, Payload: pl}
	}
	return Req{Op: OpAggregate, Vote: (p.id+r)%5 == 0}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runMirror executes the mirror protocol on the given engine and returns
// the stats plus per-node digests.
func runMirror(adj [][]int32, rounds, aggRounds, workers int, blocking bool) (Stats, []int64, []int64) {
	n := len(adj)
	procs := make([]*mirrorProc, n)
	mk := func(u int) Proc {
		procs[u] = &mirrorProc{id: u, rounds: rounds, aggRounds: aggRounds}
		return procs[u]
	}
	if blocking {
		workers = -1
	}
	stats := Run(adj, workers, nil, mk)
	dig := make([]int64, n)
	agg := make([]int64, n)
	for u, p := range procs {
		if !p.done {
			panic("mirror proc did not finish")
		}
		dig[u], agg[u] = p.digest, p.aggDigest
	}
	return stats, dig, agg
}

// TestPoolMatchesBlocking is the engine-equivalence oracle: the same
// resumable processors produce byte-identical Stats and per-node
// observation digests on the worker pool (across worker counts) and on
// the goroutine-per-processor runtime.
func TestPoolMatchesBlocking(t *testing.T) {
	const rounds, aggRounds = 14, 5
	for _, tc := range []struct {
		name string
		adj  [][]int32
	}{
		{"ring64", ring(64)},
		{"complete24", complete(24)},
		{"path3", [][]int32{{1}, {0, 2}, {1}}},
		{"isolated", [][]int32{{}, {}, {}}},
	} {
		refStats, refDig, refAgg := runMirror(tc.adj, rounds, aggRounds, 0, true)
		if refStats.Rounds != rounds || refStats.Aggregations != aggRounds {
			t.Fatalf("%s: blocking reference ran %d rounds / %d aggs, want %d / %d",
				tc.name, refStats.Rounds, refStats.Aggregations, rounds, aggRounds)
		}
		for _, workers := range []int{1, 2, 3, 7, 0} {
			stats, dig, agg := runMirror(tc.adj, rounds, aggRounds, workers, false)
			if stats != refStats {
				t.Fatalf("%s workers=%d: stats %+v, blocking reference %+v", tc.name, workers, stats, refStats)
			}
			if !reflect.DeepEqual(dig, refDig) || !reflect.DeepEqual(agg, refAgg) {
				t.Fatalf("%s workers=%d: per-node digests diverged from the blocking engine", tc.name, workers)
			}
		}
	}
}

// TestPoolAdapterMatchesBlockingAPI pins the Proc abstraction against the
// blocking API it is driven through on the reference engine: the same
// protocol written both ways records
// identical Stats.
func TestPoolAdapterMatchesBlockingAPI(t *testing.T) {
	const n, rounds, aggRounds = 9, 12, 4
	adj := ring(n)
	apiStats := runBlocking(adj, nil, func(api *blockingAPI) {
		id := api.ID()
		for r := 0; r < rounds; r++ {
			if (id+r)%3 == 0 {
				api.Exchange(nil)
			} else {
				api.Broadcast(&idsPayload{Ids: []int32{int32(id), int32(r)}})
			}
		}
		for r := rounds; r < rounds+aggRounds; r++ {
			api.Aggregate((id+r)%5 == 0)
		}
	})
	poolStats, _, _ := runMirror(adj, rounds, aggRounds, 3, false)
	if apiStats != poolStats {
		t.Fatalf("pool stats %+v differ from blocking-API stats %+v", poolStats, apiStats)
	}
}

// departProc broadcasts for departAt rounds and then departs; survivors
// with aggRounds > 0 follow with aggregates, voting true only on their
// designated round. Used to pin the departure semantics on the pool
// engine against the blocking engine's (see TestDepartureVoteRace).
type departProc struct {
	id, departAt, aggRounds int
	r                       int
	heard                   []int
	aggSeen                 []bool
	payload                 idsPayload
}

func (p *departProc) Step(in In) Req {
	if p.r > 0 && p.r <= p.departAt {
		p.heard = append(p.heard, len(in.Msgs))
	}
	if p.r > p.departAt {
		p.aggSeen = append(p.aggSeen, in.Agg)
	}
	if p.r == p.departAt+p.aggRounds {
		return Req{Op: OpDone}
	}
	r := p.r
	p.r++
	if r < p.departAt {
		p.payload.Ids = append(p.payload.Ids[:0], int32(p.id))
		return Req{Op: OpExchange, Payload: &p.payload}
	}
	return Req{Op: OpAggregate, Vote: r-p.departAt == p.id}
}

// TestPoolDepartureSemantics re-runs the staggered-departure scenario of
// TestDepartedProcessorsLeaveTheBarrier on the pool engine: processor u
// survives u+1 exchange rounds; the longest-lived processor follows with
// solo aggregates. Departed processors must stop sending, receiving and
// voting, with the same Stats the blocking engine records.
func TestPoolDepartureSemantics(t *testing.T) {
	const n = 5
	run := func(workers int, blocking bool) (Stats, [][]int, [][]bool) {
		procs := make([]*departProc, n)
		mk := func(u int) Proc {
			agg := 0
			if u == n-1 {
				agg = 2
			}
			procs[u] = &departProc{id: u, departAt: u + 1, aggRounds: agg}
			return procs[u]
		}
		if blocking {
			workers = -1
		}
		stats := Run(complete(n), workers, nil, mk)
		heard := make([][]int, n)
		aggs := make([][]bool, n)
		for u, p := range procs {
			heard[u], aggs[u] = p.heard, p.aggSeen
		}
		return stats, heard, aggs
	}
	refStats, refHeard, refAggs := run(0, true)
	for id := 0; id < n; id++ {
		for r, got := range refHeard[id] {
			if want := n - 1 - r; got != want {
				t.Fatalf("blocking: node %d round %d heard %d, want %d", id, r, got, want)
			}
		}
	}
	// The survivor's solo aggregates: round 0 after its departAt has
	// vote (r-departAt == id) false for id=4 at r=5... vote true exactly
	// when r-departAt == id, i.e. never within 2 rounds — both false.
	if !reflect.DeepEqual(refAggs[n-1], []bool{false, false}) {
		t.Fatalf("blocking: solo aggregates = %v, want [false false]", refAggs[n-1])
	}
	var wantMsgs int64
	for r := 0; r < n; r++ {
		live := int64(n - r)
		wantMsgs += live * (live - 1)
	}
	if refStats.Messages != wantMsgs {
		t.Fatalf("blocking: messages = %d, want %d", refStats.Messages, wantMsgs)
	}
	for _, workers := range []int{1, 2, 3, 0} {
		stats, heard, aggs := run(workers, false)
		if stats != refStats {
			t.Fatalf("workers=%d: stats %+v, blocking %+v", workers, stats, refStats)
		}
		if !reflect.DeepEqual(heard, refHeard) || !reflect.DeepEqual(aggs, refAggs) {
			t.Fatalf("workers=%d: observations diverged from the blocking engine", workers)
		}
	}
}

// TestDepartureVoteRace is the targeted audit of the coordinator's
// departure path (blocking engine): a processor returning from its body
// between a peer's deposit and the round's completion must neither lose
// that peer's aggregation vote nor strand waiters. Voters deposit
// Aggregate(true) and block while the remaining processors depart at
// staggered moments — under -race and across 10 trials the aggregate
// must always come back true (the deposited vote survives no matter
// which departure completes the round) and the run must always drain
// (nobody stranded). The same schedule then runs as step machines on the
// pool engine, which must reproduce the blocking Stats exactly — the
// ported-semantics check.
func TestDepartureVoteRace(t *testing.T) {
	const n = 8 // processors 0,1 vote; 2..7 depart without voting
	for trial := 0; trial < 10; trial++ {
		var departed atomic.Int32
		results := make([]bool, 2)
		stats := runBlocking(complete(n), nil, func(api *blockingAPI) {
			id := api.ID()
			stagger(id, trial)
			if id < 2 {
				// Deposit a true vote and block until some departure or
				// deposit completes the round.
				results[id] = api.Aggregate(true)
				// Second round: every voter still live votes false; the
				// OR must now be false (departed votes are false, and
				// no true vote may leak over from round one).
				if api.Aggregate(false) {
					panic("stale vote leaked into the second aggregation")
				}
				return
			}
			// Departers: leave at staggered times, some instantly, some
			// after yielding — exercising "return between a peer's
			// deposit and finishRound".
			for i := 0; i < (id*3+trial)%7; i++ {
				runtime.Gosched()
			}
			departed.Add(1)
		})
		for id, got := range results {
			if !got {
				t.Fatalf("trial %d: voter %d lost the true vote (aggregate returned false)", trial, id)
			}
		}
		if departed.Load() != n-2 {
			t.Fatalf("trial %d: only %d departers ran", trial, departed.Load())
		}
		want := Stats{Aggregations: 2}
		if stats != want {
			t.Fatalf("trial %d: stats = %+v, want %+v", trial, stats, want)
		}
	}

	// Port check: the same (deterministic) schedule as resumable
	// machines on the pool engine — departers return OpDone on their
	// first step, voters run the two aggregates — must produce the same
	// Stats and votes.
	for _, workers := range []int{1, 3, 0} {
		votes := make([]bool, 2)
		mk := func(u int) Proc {
			return &voteThenDepartProc{id: u, votes: votes}
		}
		stats := Run(complete(n), workers, nil, mk)
		want := Stats{Aggregations: 2}
		if stats != want {
			t.Fatalf("pool workers=%d: stats = %+v, want %+v", workers, stats, want)
		}
		if !votes[0] || !votes[1] {
			t.Fatalf("pool workers=%d: a voter lost the true vote: %v", workers, votes)
		}
	}
}

// voteThenDepartProc is the pool-engine half of TestDepartureVoteRace.
type voteThenDepartProc struct {
	id    int
	r     int
	votes []bool
}

func (p *voteThenDepartProc) Step(in In) Req {
	if p.id >= 2 {
		return Req{Op: OpDone}
	}
	switch p.r {
	case 0:
		p.r++
		return Req{Op: OpAggregate, Vote: true}
	case 1:
		p.votes[p.id] = in.Agg
		p.r++
		return Req{Op: OpAggregate, Vote: false}
	default:
		if in.Agg {
			panic("stale vote leaked into the second aggregation")
		}
		return Req{Op: OpDone}
	}
}

// TestPoolGoroutineBound: the pool engine must run a large network on
// workers + O(1) goroutines — the property that makes 100k-processor
// networks feasible (the blocking engine would need one goroutine per
// processor).
func TestPoolGoroutineBound(t *testing.T) {
	const n, workers = 20000, 4
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	mk := func(u int) Proc {
		return &goroutineProbeProc{peak: &peak}
	}
	Run(ring(n), workers, nil, mk)
	limit := int64(base + workers + 4)
	if got := peak.Load(); got > limit {
		t.Fatalf("peak goroutines during pooled run = %d, want ≤ %d (base %d + %d workers + O(1))",
			got, limit, base, workers)
	}
}

// TestPoolWorkersDefaultRule pins the default worker count: one worker
// below 2·minShard processors, min(GOMAXPROCS, n/minShard) from there
// on, and an explicit count capped only by n. A small network must also
// really run on one goroutine at any GOMAXPROCS.
func TestPoolWorkersDefaultRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 40, 160, minShard - 1, minShard, 2*minShard - 1, 2 * minShard, 3 * minShard, 100 * minShard} {
			want := 1
			if n >= 2*minShard {
				want = min(procs, n/minShard)
			}
			if got := PoolWorkers(n, 0); got != want {
				t.Fatalf("GOMAXPROCS %d, %d processors: PoolWorkers(n, 0) = %d, want %d", procs, n, got, want)
			}
			if got := PoolWorkers(n, 3); got != min(3, n) {
				t.Fatalf("GOMAXPROCS %d, %d processors: PoolWorkers(n, 3) = %d, want %d", procs, n, got, min(3, n))
			}
		}
	}

	runtime.GOMAXPROCS(4)
	for _, n := range []int{160, 3 * minShard} {
		want := PoolWorkers(n, 0)
		base := runtime.NumGoroutine()
		var peak atomic.Int64
		Run(ring(n), 0, nil, func(u int) Proc { return &goroutineProbeProc{peak: &peak} })
		if got, limit := peak.Load(), int64(base+want+2); got > limit {
			t.Fatalf("%d processors at GOMAXPROCS 4: peak %d goroutines, want ≤ %d (base %d + %d workers + 2)",
				n, got, limit, base, want)
		}
	}
}

type goroutineProbeProc struct {
	r    int
	peak *atomic.Int64
	pl   idsPayload
}

func (p *goroutineProbeProc) Step(in In) Req {
	// CAS max: a plain load-then-store would let a smaller concurrent
	// sample overwrite a bound violation.
	g := int64(runtime.NumGoroutine())
	for {
		cur := p.peak.Load()
		if g <= cur || p.peak.CompareAndSwap(cur, g) {
			break
		}
	}
	if p.r == 3 {
		return Req{Op: OpDone}
	}
	p.r++
	p.pl.Ids = append(p.pl.Ids[:0], int32(p.r))
	return Req{Op: OpExchange, Payload: &p.pl}
}

// TestDeliverShardMatchesDeliver: for random sender densities (forcing
// both the push and the pull strategy) and any contiguous shard
// partition, deliverShard must reassemble exactly the inboxes deliver
// builds.
func TestDeliverShardMatchesDeliver(t *testing.T) {
	adjs := map[string][][]int32{"ring": ring(17), "complete": complete(9)}
	for name, adj := range adjs {
		tr := newLocalTransport(adj)
		n := len(adj)
		payloads := make([]*idsPayload, n)
		for u := range payloads {
			payloads[u] = &idsPayload{Ids: []int32{int32(u), int32(u * 2)}}
		}
		for _, density := range []int{1, 3, n} { // 1/density of nodes speak
			out := make([]any, n)
			var senders []int32
			live := make([]bool, n)
			for u := 0; u < n; u++ {
				live[u] = u%5 != 4 // a few departed receivers too
				if u%density == 0 && live[u] {
					out[u] = payloads[u]
					senders = append(senders, int32(u))
				}
			}
			wantIn := make([][]Message, n)
			wantMsgs, wantEntries := tr.deliver(out, wantIn, live)

			for _, shards := range [][]int{{n}, {1, n - 1}, {n / 2, n - n/2}, {3, 3, n - 6}} {
				gotIn := make([][]Message, n)
				var arena inboxArena
				var msgs, entries int64
				lo := 0
				for _, size := range shards {
					m, e := tr.deliverShard(out, senders, live, gotIn, &arena, lo, lo+size)
					// A fresh arena per shard mimics per-worker arenas;
					// reusing one across shards of a round would alias.
					arena = inboxArena{}
					msgs, entries = msgs+m, entries+e
					lo += size
				}
				if msgs != wantMsgs || entries != wantEntries {
					t.Fatalf("%s density=%d shards=%v: counts (%d,%d), want (%d,%d)",
						name, density, shards, msgs, entries, wantMsgs, wantEntries)
				}
				for u := 0; u < n; u++ {
					if !messagesEqual(gotIn[u], wantIn[u]) {
						t.Fatalf("%s density=%d shards=%v: inbox %d = %v, want %v",
							name, density, shards, u, gotIn[u], wantIn[u])
					}
				}
			}
		}
	}
}

func messagesEqual(a, b []Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].Payload != b[i].Payload {
			return false
		}
	}
	return true
}
