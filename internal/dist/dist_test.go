package dist

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// idsPayload is a test payload carrying a few ids; it implements Sizer.
type idsPayload struct {
	Ids []int32
}

func (p *idsPayload) PayloadEntries() int { return len(p.Ids) }

// ring returns the cycle graph 0-1-...-(n-1)-0.
func ring(n int) [][]int32 {
	adj := make([][]int32, n)
	for u := 0; u < n; u++ {
		adj[u] = []int32{int32((u + n - 1) % n), int32((u + 1) % n)}
	}
	return adj
}

// complete returns the complete graph on n processors.
func complete(n int) [][]int32 {
	adj := make([][]int32, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if v != u {
				adj[u] = append(adj[u], int32(v))
			}
		}
	}
	return adj
}

// stagger perturbs goroutine scheduling so barrier bugs that depend on
// arrival order get a chance to fire: a deterministic per-(node, round)
// jitter plus yields.
func stagger(id, round int) {
	for i := 0; i < (id*7+round*3)%5; i++ {
		runtime.Gosched()
	}
	if (id+round)%4 == 0 {
		time.Sleep(time.Duration((id*13+round)%3) * time.Millisecond)
	}
}

// TestDeterminism runs the same protocol 10 times under staggered
// scheduling and requires byte-identical Stats and per-node data: the
// property the core protocols rely on for centralized/distributed
// selection equality.
func TestDeterminism(t *testing.T) {
	const n, rounds = 9, 12
	run := func() (Stats, []int64) {
		sums := make([]int64, n)
		stats := runBlocking(ring(n), nil, func(api *blockingAPI) {
			id := api.ID()
			var sum int64
			for r := 0; r < rounds; r++ {
				stagger(id, r)
				var in []Message
				if (id+r)%3 == 0 {
					in = api.Exchange(nil) // silent round
				} else {
					in = api.Broadcast(&idsPayload{Ids: []int32{int32(id), int32(r)}})
				}
				for _, m := range in {
					pl := m.Payload.(*idsPayload)
					sum += int64(m.From) + int64(pl.Ids[0])*3 + int64(pl.Ids[1])
				}
			}
			sums[id] = sum
		})
		return stats, sums
	}
	first, firstSums := run()
	if first.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", first.Rounds, rounds)
	}
	if first.Messages == 0 || first.Entries == 0 {
		t.Fatalf("no traffic recorded: %+v", first)
	}
	for trial := 1; trial < 10; trial++ {
		stats, sums := run()
		if stats != first {
			t.Fatalf("trial %d: stats diverged: %+v vs %+v", trial, stats, first)
		}
		if !reflect.DeepEqual(sums, firstSums) {
			t.Fatalf("trial %d: per-node data diverged: %v vs %v", trial, sums, firstSums)
		}
	}
}

// TestBarrierLockstep checks the BSP contract under staggered scheduling:
// every message received in round r was sent in round r (no processor
// runs ahead), and inboxes arrive in ascending sender order.
func TestBarrierLockstep(t *testing.T) {
	const n, rounds = 8, 20
	errs := make([]error, n)
	runBlocking(complete(n), nil, func(api *blockingAPI) {
		id := api.ID()
		for r := 0; r < rounds; r++ {
			stagger(id, r)
			in := api.Broadcast(&idsPayload{Ids: []int32{int32(r)}})
			if len(in) != n-1 {
				errs[id] = fmt.Errorf("round %d: got %d messages, want %d", r, len(in), n-1)
				return
			}
			prev := int32(-1)
			for _, m := range in {
				if m.From <= prev {
					errs[id] = fmt.Errorf("round %d: senders out of order: %d after %d", r, m.From, prev)
					return
				}
				prev = m.From
				if got := m.Payload.(*idsPayload).Ids[0]; got != int32(r) {
					errs[id] = fmt.Errorf("round %d: received round-%d payload from %d — barrier broken", r, got, m.From)
					return
				}
			}
		}
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
}

// TestAggregateSemantics: Aggregate is a global OR — true iff any live
// processor voted true — and every processor observes the same value.
func TestAggregateSemantics(t *testing.T) {
	const n = 6
	results := make([][]bool, n)
	stats := runBlocking(complete(n), nil, func(api *blockingAPI) {
		id := api.ID()
		// Round r: only processor r votes true; the last round is
		// unanimous false and must short-circuit every loop together.
		for r := 0; r <= n; r++ {
			stagger(id, r)
			got := api.Aggregate(id == r) // r == n: nobody votes true
			results[id] = append(results[id], got)
		}
	})
	if stats.Aggregations != n+1 {
		t.Fatalf("aggregations = %d, want %d", stats.Aggregations, n+1)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Fatalf("aggregations must not count as rounds/messages: %+v", stats)
	}
	for id := 0; id < n; id++ {
		for r := 0; r <= n; r++ {
			want := r < n // one voter in rounds 0..n-1, none in round n
			if results[id][r] != want {
				t.Fatalf("node %d round %d: aggregate = %v, want %v", id, r, results[id][r], want)
			}
		}
	}
}

// TestDepartedProcessorsLeaveTheBarrier: processors that return early
// stop sending and voting, and the survivors keep advancing — the
// behavior the fixed-rounds protocols rely on when one node aborts.
func TestDepartedProcessorsLeaveTheBarrier(t *testing.T) {
	const n = 5
	counts := make([][]int, n)
	soloFalse, soloTrue := true, false
	stats := runBlocking(complete(n), nil, func(api *blockingAPI) {
		id := api.ID()
		// Processor u survives u+1 exchange rounds, then departs; the
		// longest-lived processor follows with aggregations.
		for r := 0; r <= id; r++ {
			stagger(id, r)
			in := api.Broadcast(&idsPayload{Ids: []int32{int32(id)}})
			counts[id] = append(counts[id], len(in))
		}
		if id == n-1 {
			// Alone now: the OR is exactly this processor's own vote.
			soloFalse = api.Aggregate(false)
			soloTrue = api.Aggregate(true)
		}
	})
	for id := 0; id < n; id++ {
		for r, got := range counts[id] {
			// In round r the processors still alive are r..n-1, so a
			// live processor hears from the other n-1-r of them.
			want := n - 1 - r
			if got != want {
				t.Fatalf("node %d round %d: heard %d neighbors, want %d", id, r, got, want)
			}
		}
	}
	if soloFalse {
		t.Fatal("solo Aggregate(false) returned true — departed processors voted")
	}
	if !soloTrue {
		t.Fatal("solo Aggregate(true) returned false")
	}
	// Departed processors must not inflate the accounting: in round r the
	// n-r live processors each broadcast to the other n-r-1.
	var wantMsgs int64
	for r := 0; r < n; r++ {
		live := int64(n - r)
		wantMsgs += live * (live - 1)
	}
	if stats.Messages != wantMsgs {
		t.Fatalf("messages = %d, want %d (deliveries to departed processors must not count)", stats.Messages, wantMsgs)
	}
}

// TestAccounting pins the Stats formulas on a known topology: a 3-path
// where everyone broadcasts one 2-entry payload per round.
func TestAccounting(t *testing.T) {
	adj := [][]int32{{1}, {0, 2}, {1}} // path 0-1-2
	const rounds = 4
	stats := runBlocking(adj, nil, func(api *blockingAPI) {
		p := &idsPayload{Ids: []int32{1, 2}}
		for r := 0; r < rounds; r++ {
			api.Broadcast(p)
		}
	})
	if stats.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", stats.Rounds, rounds)
	}
	// 2 graph edges → 4 deliveries per round.
	if want := int64(4 * rounds); stats.Messages != want {
		t.Fatalf("messages = %d, want %d", stats.Messages, want)
	}
	if want := int64(2 * 4 * rounds); stats.Entries != want {
		t.Fatalf("entries = %d, want %d", stats.Entries, want)
	}
	if stats.Aggregations != 0 {
		t.Fatalf("aggregations = %d, want 0", stats.Aggregations)
	}
}

// TestEdgeTopologies: zero processors is a no-op; an isolated processor
// still pays rounds but hears nothing.
func TestEdgeTopologies(t *testing.T) {
	if stats := runBlocking(nil, nil, func(api *blockingAPI) { t.Error("body ran with no processors") }); stats != (Stats{}) {
		t.Fatalf("empty run recorded traffic: %+v", stats)
	}
	stats := runBlocking([][]int32{{}}, nil, func(api *blockingAPI) {
		if in := api.Broadcast(&idsPayload{Ids: []int32{7}}); len(in) != 0 {
			t.Errorf("isolated processor received %d messages", len(in))
		}
		if api.Aggregate(true) != true || api.Aggregate(false) != false {
			t.Error("solo aggregate is not the identity")
		}
	})
	if stats.Rounds != 1 || stats.Messages != 0 || stats.Aggregations != 2 {
		t.Fatalf("unexpected stats for isolated processor: %+v", stats)
	}
}

// TestUnsortedAdjacencyIsNormalized: the transport must deliver in
// ascending sender order even when the caller's adjacency lists are not
// sorted.
func TestUnsortedAdjacencyIsNormalized(t *testing.T) {
	adj := [][]int32{{2, 1}, {0, 2}, {1, 0}}
	runBlocking(adj, nil, func(api *blockingAPI) {
		in := api.Broadcast(&idsPayload{Ids: []int32{int32(api.ID())}})
		prev := int32(-1)
		for _, m := range in {
			if m.From <= prev {
				t.Errorf("node %d: delivery out of order: %d after %d", api.ID(), m.From, prev)
			}
			prev = m.From
		}
	})
}

// TestAscendingAdjacencyIsNotCopied: rows that already ascend, as
// Problem.CommGraph builds them, are used as given; only a row out of
// order is copied and sorted, and the caller's lists are never modified.
func TestAscendingAdjacencyIsNotCopied(t *testing.T) {
	adj := [][]int32{{1, 2}, {0, 2}, {0, 1}}
	tr := newLocalTransport(adj)
	if &tr.adj[0] != &adj[0] {
		t.Error("an all-ascending graph was copied")
	}
	mixed := [][]int32{{2, 1}, {0, 2}, {1, 0}}
	tr = newLocalTransport(mixed)
	if &tr.adj[1][0] != &mixed[1][0] {
		t.Error("the ascending row 1 was copied")
	}
	for u, want := range [][]int32{{1, 2}, {0, 2}, {0, 1}} {
		if !slices.Equal(tr.adj[u], want) {
			t.Errorf("row %d delivers from %v, want %v", u, tr.adj[u], want)
		}
	}
	if !slices.Equal(mixed[0], []int32{2, 1}) || !slices.Equal(mixed[2], []int32{1, 0}) {
		t.Errorf("the caller's rows were modified: %v", mixed)
	}
}
