package bench

// The one measurement kernel behind every timed comparison of the
// `schedbench -core/-online/-dist/-load` harnesses. An arm is one side of
// a comparison; the kernel runs K arms in rounds and rotates their order
// every round (for two arms, alternation), so time-correlated machine
// load — GC pacing, a neighbour's burst — cannot systematically land on
// one arm. runtime.GC and ReadMemStats bracket each round outside its
// timed region, so allocation counts are exact per arm.

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// arm is one side of a timed comparison. call runs one call; i is its
// index within the round. Extra outputs (the fastest run's breakdown, a
// goroutine peak, a cross-check) stay in the closure.
type arm struct {
	name string
	call func(i int) error
}

// plan says how long the kernel measures.
type plan struct {
	// rounds is how many rounds every arm runs. With budget > 0 it is a
	// minimum: whole rounds are added until the timed regions of all arms
	// sum to budget, up to maxRounds.
	rounds int
	budget time.Duration
	// calls is the fixed number of calls in one round of an arm. Zero
	// calibrates it per arm instead: one timed call (also a warm-up,
	// outside the allocation count), then enough calls to fill target, at
	// most maxCalls.
	calls  int
	target time.Duration
}

const (
	maxRounds = 200
	maxCalls  = 20000
)

// armResult is what the kernel measured for one arm.
type armResult struct {
	roundNs []int64 // wall time of each round
	calls   int     // calls per round
	best    int     // index of the fastest round
	allocs  float64 // heap allocations per call, over every round
}

// bestNs is the wall time of the fastest round.
func (r *armResult) bestNs() int64 { return r.roundNs[r.best] }

// nsPerCall is the fastest round's wall time per call.
func (r *armResult) nsPerCall() float64 { return float64(r.bestNs()) / float64(r.calls) }

// measureArms runs the arms under p and returns one result per arm, in
// argument order. An arm's error aborts the measurement, prefixed with
// the arm's name.
func measureArms(p plan, arms ...arm) ([]armResult, error) {
	res := make([]armResult, len(arms))
	mallocs := make([]uint64, len(arms))
	for k, a := range arms {
		res[k].calls = p.calls
		if p.calls == 0 {
			n, err := calibrate(a, p.target)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a.name, err)
			}
			res[k].calls = n
		}
	}
	var total time.Duration
	for r := 0; r < p.rounds || (total < p.budget && r < maxRounds); r++ {
		for i := range arms {
			k := (r + i) % len(arms)
			ns, m, err := runRound(arms[k], res[k].calls)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", arms[k].name, err)
			}
			res[k].roundNs = append(res[k].roundNs, ns)
			mallocs[k] += m
			total += time.Duration(ns)
		}
	}
	for k := range res {
		for r, ns := range res[k].roundNs {
			if ns < res[k].roundNs[res[k].best] {
				res[k].best = r
			}
		}
		res[k].allocs = float64(mallocs[k]) / float64(len(res[k].roundNs)*res[k].calls)
	}
	return res, nil
}

// calibrate times one call of a and returns the call count that fills
// target.
func calibrate(a arm, target time.Duration) (int, error) {
	begin := time.Now()
	if err := a.call(0); err != nil {
		return 0, err
	}
	once := time.Since(begin)
	n := 1
	if once < target {
		n = int(target/once) + 1
	}
	return min(n, maxCalls), nil
}

// runRound times calls calls of a and counts their heap allocations
// (Mallocs is monotone, so a GC inside the round does not skew it).
func runRound(a arm, calls int) (ns int64, mallocs uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for i := 0; i < calls; i++ {
		if err := a.call(i); err != nil {
			return 0, 0, err
		}
	}
	ns = time.Since(begin).Nanoseconds()
	runtime.ReadMemStats(&after)
	return ns, after.Mallocs - before.Mallocs, nil
}

// medianRatio is the median over rounds of a's per-call time over b's.
// Each round times the arms back to back, so a load burst lands on both
// sides of that round's ratio; only a cost present in every round moves
// the median. Zero when no round of b took measurable time.
func medianRatio(a, b *armResult) float64 {
	ratios := make([]float64, 0, len(a.roundNs))
	for r := range a.roundNs {
		if b.roundNs[r] > 0 {
			ratios = append(ratios, float64(a.roundNs[r])*float64(b.calls)/(float64(b.roundNs[r])*float64(a.calls)))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}
