package dist

import "slices"

// inboxArena is one shard's reusable inbox storage: every inbox built by
// a deliverShard call is a window into buf, so a round allocates nothing
// once the arena has grown to the shard's peak round size.
type inboxArena struct {
	buf  []Message
	ends []int32 // per-receiver end offsets (pull) / fill cursors (push)
	cnt  []int32 // per-receiver message counts (push pass 1)
}

// grow readies the per-receiver scratch for a shard of the given size.
func (a *inboxArena) grow(receivers int) {
	if cap(a.ends) < receivers {
		a.ends = make([]int32, receivers)
		a.cnt = make([]int32, receivers)
	}
	a.ends = a.ends[:receivers]
	a.cnt = a.cnt[:receivers]
}

// localTransport delivers rounds in-process over a fixed undirected
// communication graph: processor u receives from every neighbor in
// adj[u]. Delivery is batched and allocation-free after warm-up, with no
// channels. Every inbox lists its messages in ascending sender order, so
// the same topology and outboxes always yield the same inboxes — the
// property reproducible Stats and protocol executions rest on.
type localTransport struct {
	adj [][]int32
}

// newLocalTransport builds the transport for a communication graph given
// as adjacency lists over processor ids. Delivery order (and thus the
// protocols' executions) must not depend on how the caller ordered
// neighbors, so every row is read in ascending order: a row that already
// is ascending, as Problem.CommGraph builds them, is used as given,
// without a copy; any other row is copied and sorted. The caller's lists
// are never modified, and the transport only reads them.
func newLocalTransport(adj [][]int32) *localTransport {
	var sorted [][]int32 // nil while every row seen is ascending
	for u, nbrs := range adj {
		if slices.IsSorted(nbrs) {
			continue
		}
		if sorted == nil {
			sorted = slices.Clone(adj)
		}
		sorted[u] = slices.Sorted(slices.Values(nbrs))
	}
	if sorted == nil {
		return &localTransport{adj: adj}
	}
	return &localTransport{adj: sorted}
}

// deliver routes one whole round for the blocking coordinator: out[v] is
// processor v's payload (nil = silent). Every live processor's inbox
// in[u] is rebuilt, reusing its backing array, with one message per
// speaking neighbor in ascending sender order. Departed processors
// (live[u] false) receive nothing and count for nothing, and their
// inboxes are emptied so they stop retaining payloads. It returns the
// messages delivered and their total payload entries (per Sizer).
func (t *localTransport) deliver(out []any, in [][]Message, live []bool) (msgs, entries int64) {
	for u := range t.adj {
		if !live[u] {
			in[u] = nil
			continue
		}
		box := in[u][:0]
		for _, v := range t.adj[u] {
			if p := out[v]; p != nil {
				box = append(box, Message{From: v, Payload: p})
				msgs++
				if s, ok := p.(Sizer); ok {
					entries += int64(s.PayloadEntries())
				}
			}
		}
		in[u] = box
	}
	return msgs, entries
}

// deliverShard is deliver restricted to the receivers u in [lo, hi), the
// pool engine's shard-parallel delivery: in[u] is rebuilt inside the
// shard's arena for live receivers and nilled for departed ones, and
// entries of in outside the range are untouched, so W workers can route
// one round concurrently with no shared mutable state. senders lists the
// processors with non-nil outboxes in ascending id order. The inboxes
// are exactly the ones deliver builds (TestDeliverShardMatchesDeliver),
// which the engines' byte-identical Stats rest on. It picks between two
// strategies per call:
//
//   - receiver-side ("pull"): scan every live shard receiver's adjacency
//     list against the outbox vector — O(Σ deg(shard)), right for dense
//     rounds where most processors spoke;
//   - sender-side ("push"): walk only the senders' adjacency lists,
//     counting then placing — O(Σ deg(senders)), the win on sparse
//     rounds (a lone phase-2 announcer among 10^5 silent processors).
//
// The strategy choice is shard-local and invisible in the output, so
// different shards (or runs) choosing differently cannot perturb the
// protocol execution.
func (t *localTransport) deliverShard(out []any, senders []int32, live []bool, in [][]Message, arena *inboxArena, lo, hi int) (msgs, entries int64) {
	shardDeg := 0
	for u := lo; u < hi; u++ {
		if live[u] {
			shardDeg += len(t.adj[u])
		}
	}
	senderDeg := 0
	for _, v := range senders {
		senderDeg += len(t.adj[v])
	}
	arena.grow(hi - lo)
	if 2*senderDeg < shardDeg {
		return t.deliverPush(out, senders, live, in, arena, lo, hi)
	}
	return t.deliverPull(out, live, in, arena, lo, hi)
}

// deliverPull is the receiver-side strategy: the deliver loop restricted
// to [lo, hi), appending into the arena. Inbox views are attached after
// the pass so buffer growth cannot invalidate them.
func (t *localTransport) deliverPull(out []any, live []bool, in [][]Message, arena *inboxArena, lo, hi int) (msgs, entries int64) {
	buf := arena.buf[:0]
	for u := lo; u < hi; u++ {
		if live[u] {
			for _, v := range t.adj[u] {
				if p := out[v]; p != nil {
					buf = append(buf, Message{From: v, Payload: p})
					msgs++
					if s, ok := p.(Sizer); ok {
						entries += int64(s.PayloadEntries())
					}
				}
			}
		}
		arena.ends[u-lo] = int32(len(buf))
	}
	arena.buf = buf
	start := int32(0)
	for u := lo; u < hi; u++ {
		end := arena.ends[u-lo]
		if live[u] {
			in[u] = buf[start:end:end]
		} else {
			in[u] = nil
		}
		start = end
	}
	return msgs, entries
}

// deliverPush is the sender-side strategy: pass 1 counts each shard
// receiver's messages, pass 2 places them at prefix-summed offsets.
// Senders are walked in ascending id order both times, so every inbox
// comes out in ascending sender order — the same order pull produces.
func (t *localTransport) deliverPush(out []any, senders []int32, live []bool, in [][]Message, arena *inboxArena, lo, hi int) (msgs, entries int64) {
	cnt := arena.cnt
	for i := range cnt {
		cnt[i] = 0
	}
	for _, v := range senders {
		for _, u := range t.adj[v] {
			if int(u) >= lo && int(u) < hi && live[u] {
				cnt[u-int32(lo)]++
			}
		}
	}
	total := int32(0)
	cursor := arena.ends
	for i, c := range cnt {
		cursor[i] = total
		total += c
	}
	if cap(arena.buf) < int(total) {
		arena.buf = make([]Message, total, total+total/4)
	}
	buf := arena.buf[:total]
	arena.buf = buf
	for _, v := range senders {
		p := out[v]
		pe := int64(0)
		if s, ok := p.(Sizer); ok {
			pe = int64(s.PayloadEntries())
		}
		for _, u := range t.adj[v] {
			if int(u) >= lo && int(u) < hi && live[u] {
				buf[cursor[u-int32(lo)]] = Message{From: v, Payload: p}
				cursor[u-int32(lo)]++
				entries += pe
			}
		}
	}
	msgs = int64(total)
	start := int32(0)
	for u := lo; u < hi; u++ {
		end := cursor[u-lo] // == start + cnt[u-lo] after the fill pass
		if live[u] {
			in[u] = buf[start:end:end]
		} else {
			in[u] = nil
		}
		start = end
	}
	return msgs, entries
}
