package dist

import "testing"

// benchBody is a protocol shaped like the core hot path: every processor
// broadcasts a small payload each round, double-buffering the payload the
// same way the protocol engine's arena does, and folds its inbox.
func benchBody(rounds, entries int) func(*blockingAPI) {
	return func(api *blockingAPI) {
		var bufs [2]idsPayload
		for i := range bufs {
			bufs[i].Ids = make([]int32, entries)
		}
		sink := int64(0)
		for r := 0; r < rounds; r++ {
			p := &bufs[r&1]
			for x := range p.Ids {
				p.Ids[x] = int32(api.ID() + r + x)
			}
			for _, m := range api.Broadcast(p) {
				sink += int64(m.Payload.(*idsPayload).Ids[0])
			}
		}
		_ = sink
	}
}

// BenchmarkRingBroadcast measures the per-round cost of the runtime
// itself: barrier + batched delivery on a 64-cycle, 32 rounds per run.
func BenchmarkRingBroadcast(b *testing.B) {
	adj := ring(64)
	body := benchBody(32, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBlocking(adj, nil, body)
	}
}

// BenchmarkCompleteBroadcast stresses delivery fan-out: 32 processors,
// all-to-all, 16 rounds per run.
func BenchmarkCompleteBroadcast(b *testing.B) {
	adj := complete(32)
	body := benchBody(16, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBlocking(adj, nil, body)
	}
}

// BenchmarkAggregate measures the global-OR barrier alone.
func BenchmarkAggregate(b *testing.B) {
	adj := ring(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBlocking(adj, nil, func(api *blockingAPI) {
			for r := 0; r < 32; r++ {
				api.Aggregate(r%7 == 0)
			}
		})
	}
}

// benchPoolBody mirrors benchBody as a resumable Proc.
type benchPoolProc struct {
	id, rounds, entries int
	r                   int
	sink                int64
	bufs                [2]idsPayload
}

func (p *benchPoolProc) Step(in In) Req {
	for _, m := range in.Msgs {
		p.sink += int64(m.Payload.(*idsPayload).Ids[0])
	}
	if p.r == p.rounds {
		return Req{Op: OpDone}
	}
	pl := &p.bufs[p.r&1]
	if len(pl.Ids) == 0 {
		pl.Ids = make([]int32, p.entries)
	}
	for x := range pl.Ids {
		pl.Ids[x] = int32(p.id + p.r + x)
	}
	p.r++
	return Req{Op: OpExchange, Payload: pl}
}

// benchPool measures the pool engine on the same workload shapes as the
// blocking benchmarks above — the rounds/sec comparison behind
// BENCH_dist.json at micro scale.
func benchPool(b *testing.B, adj [][]int32, rounds, entries int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(adj, 0, nil, func(u int) Proc {
			return &benchPoolProc{id: u, rounds: rounds, entries: entries}
		})
	}
}

// BenchmarkPoolRingBroadcast is BenchmarkRingBroadcast on the pool
// engine.
func BenchmarkPoolRingBroadcast(b *testing.B) { benchPool(b, ring(64), 32, 4) }

// BenchmarkPoolCompleteBroadcast is BenchmarkCompleteBroadcast on the
// pool engine.
func BenchmarkPoolCompleteBroadcast(b *testing.B) { benchPool(b, complete(32), 16, 4) }

// BenchmarkPoolRingBroadcast10k is the scale regime the pool engine
// exists for: 10^4 processors on a handful of goroutines, a size the
// goroutine-per-processor runtime is not benchmarked at.
func BenchmarkPoolRingBroadcast10k(b *testing.B) { benchPool(b, ring(10000), 8, 4) }
