package dist

import (
	"testing"

	"treesched/internal/obs"
)

// runMirrorObserved is runMirror with a round log attached.
func runMirrorObserved(adj [][]int32, rounds, aggRounds, workers int, blocking bool) (Stats, *obs.RoundLog) {
	mk := func(u int) Proc {
		return &mirrorProc{id: u, rounds: rounds, aggRounds: aggRounds}
	}
	if blocking {
		workers = -1
	}
	rl := new(obs.RoundLog)
	return Run(adj, workers, rl, mk), rl
}

// shape strips the wall-clock component of a round log, leaving the
// deterministic (Kind, Messages, Entries) sequence.
func shape(rl *obs.RoundLog) []obs.RoundSample {
	out := make([]obs.RoundSample, len(rl.Samples))
	for i, s := range rl.Samples {
		s.StepNs = 0
		out[i] = s
	}
	return out
}

// TestRoundLogMatchesStats cross-checks the round log against the
// engine's own accounting, on both engines: one exchange sample per
// round, one aggregate sample per reduction, samples in collective
// order, and per-sample delivery counts summing to Stats.Messages and
// Stats.Entries. The log is a decomposition of Stats, not a second
// opinion — any drift means an engine sampled the wrong barrier.
func TestRoundLogMatchesStats(t *testing.T) {
	const rounds, aggRounds = 14, 5
	for _, tc := range []struct {
		name string
		adj  [][]int32
	}{
		{"ring64", ring(64)},
		{"complete24", complete(24)},
		{"isolated", [][]int32{{}, {}, {}}},
	} {
		for _, eng := range []struct {
			name     string
			blocking bool
			workers  int
		}{
			{"blocking", true, 0},
			{"pool-w1", false, 1},
			{"pool-w3", false, 3},
			{"pool-auto", false, 0},
		} {
			stats, rl := runMirrorObserved(tc.adj, rounds, aggRounds, eng.workers, eng.blocking)
			var exch, aggs int
			var msgs, entries int64
			for i, s := range rl.Samples {
				switch s.Kind {
				case "exchange":
					exch++
					msgs += s.Messages
					entries += s.Entries
				case "aggregate":
					aggs++
					if s.Messages != 0 || s.Entries != 0 {
						t.Fatalf("%s/%s: aggregate sample %d carries deliveries: %+v", tc.name, eng.name, i, s)
					}
				default:
					t.Fatalf("%s/%s: sample %d has unknown kind %q", tc.name, eng.name, i, s.Kind)
				}
				if s.StepNs < 0 {
					t.Fatalf("%s/%s: sample %d has negative StepNs %d", tc.name, eng.name, i, s.StepNs)
				}
			}
			if exch != stats.Rounds || aggs != stats.Aggregations {
				t.Fatalf("%s/%s: log has %d exchange / %d aggregate samples, stats say %d rounds / %d aggregations",
					tc.name, eng.name, exch, aggs, stats.Rounds, stats.Aggregations)
			}
			if msgs != stats.Messages || entries != stats.Entries {
				t.Fatalf("%s/%s: log sums to %d msgs / %d entries, stats say %d / %d",
					tc.name, eng.name, msgs, entries, stats.Messages, stats.Entries)
			}
		}
	}
}

// TestRoundLogEngineEquivalence pins the observed engines against each
// other: the blocking coordinator and the worker pool (across worker
// counts) must record the identical (Kind, Messages, Entries) sequence
// for the same protocol. Only StepNs — wall time — may differ.
func TestRoundLogEngineEquivalence(t *testing.T) {
	const rounds, aggRounds = 14, 5
	for _, tc := range []struct {
		name string
		adj  [][]int32
	}{
		{"ring64", ring(64)},
		{"complete24", complete(24)},
		{"path3", [][]int32{{1}, {0, 2}, {1}}},
	} {
		refStats, refLog := runMirrorObserved(tc.adj, rounds, aggRounds, 0, true)
		ref := shape(refLog)
		for _, workers := range []int{1, 2, 7, 0} {
			stats, rl := runMirrorObserved(tc.adj, rounds, aggRounds, workers, false)
			if stats != refStats {
				t.Fatalf("%s workers=%d: stats %+v, blocking reference %+v", tc.name, workers, stats, refStats)
			}
			got := shape(rl)
			if len(got) != len(ref) {
				t.Fatalf("%s workers=%d: %d samples, blocking reference has %d", tc.name, workers, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%s workers=%d: sample %d is %+v, blocking reference %+v",
						tc.name, workers, i, got[i], ref[i])
				}
			}
		}
	}
}
