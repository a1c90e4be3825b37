package bench

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// TestKernelRotation checks that K arms run in rounds whose order
// rotates by one arm every round (for two arms, alternation).
func TestKernelRotation(t *testing.T) {
	for _, tc := range []struct {
		arms, rounds int
		want         string
	}{
		{1, 3, "a a a"},
		{2, 4, "a b b a a b b a"},
		{3, 3, "a b c b c a c a b"},
	} {
		t.Run(fmt.Sprintf("%d arms", tc.arms), func(t *testing.T) {
			var order []string
			arms := make([]arm, tc.arms)
			for k := range arms {
				name := string(rune('a' + k))
				arms[k] = arm{name, func(int) error {
					order = append(order, name)
					return nil
				}}
			}
			res, err := measureArms(plan{rounds: tc.rounds, calls: 1}, arms...)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(order); got != "["+tc.want+"]" {
				t.Errorf("call order %s, want [%s]", got, tc.want)
			}
			for k := range res {
				if len(res[k].roundNs) != tc.rounds {
					t.Errorf("arm %d timed %d rounds, want %d", k, len(res[k].roundNs), tc.rounds)
				}
			}
		})
	}
}

// TestMedianRatio checks the per-round ratio estimator on synthetic
// timings.
func TestMedianRatio(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b armResult
		want float64
	}{
		{"odd rounds", armResult{roundNs: []int64{30, 10, 50}, calls: 1}, armResult{roundNs: []int64{10, 10, 10}, calls: 1}, 3},
		{"even rounds take the upper median", armResult{roundNs: []int64{10, 20, 30, 40}, calls: 1}, armResult{roundNs: []int64{10, 10, 10, 10}, calls: 1}, 3},
		{"a load burst in one round", armResult{roundNs: []int64{20, 200, 20}, calls: 1}, armResult{roundNs: []int64{10, 100, 10}, calls: 1}, 2},
		{"per-call normalization", armResult{roundNs: []int64{100, 100, 100}, calls: 10}, armResult{roundNs: []int64{10, 10, 10}, calls: 2}, 2},
		{"untimed rounds of b are skipped", armResult{roundNs: []int64{40, 7, 40}, calls: 1}, armResult{roundNs: []int64{10, 0, 10}, calls: 1}, 4},
		{"no timed round of b", armResult{roundNs: []int64{40}, calls: 1}, armResult{roundNs: []int64{0}, calls: 1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := medianRatio(&tc.a, &tc.b); got != tc.want {
				t.Errorf("medianRatio = %v, want %v", got, tc.want)
			}
		})
	}
}

var allocSink []*[64]byte

// TestKernelAllocsPerCall checks that an arm allocating exactly n heap
// objects per call reads n allocations per call, in fixed-count and
// calibrated rounds alike (the calibration call is outside the count).
// A background runtime allocation can land inside the measured calls,
// and noise only ever adds allocations, so the least of three
// measurements is the one held to exactly n.
func TestKernelAllocsPerCall(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		p    plan
	}{
		{"none, fixed", 0, plan{rounds: 2, calls: 50}},
		{"one, fixed", 1, plan{rounds: 3, calls: 40}},
		{"seven, fixed", 7, plan{rounds: 2, calls: 30}},
		{"five, calibrated", 5, plan{rounds: 1, target: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocSink = make([]*[64]byte, tc.n)
			got := math.Inf(1)
			for range 3 {
				res, err := measureArms(tc.p, arm{"alloc", func(int) error {
					for j := range allocSink {
						allocSink[j] = new([64]byte)
					}
					return nil
				}})
				if err != nil {
					t.Fatal(err)
				}
				got = min(got, res[0].allocs)
			}
			if got != float64(tc.n) {
				t.Errorf("allocs per call = %v, want %d", got, tc.n)
			}
		})
	}
}

// TestKernelCallIndex checks that fixed-count rounds pass every arm the
// call index 0..calls-1 in order, every round, and that an arm's error
// stops the measurement under the arm's name.
func TestKernelCallIndex(t *testing.T) {
	for _, tc := range []struct {
		rounds, calls int
	}{{1, 1}, {1, 25}, {3, 4}} {
		t.Run(fmt.Sprintf("%dx%d", tc.rounds, tc.calls), func(t *testing.T) {
			var a, b []int
			_, err := measureArms(plan{rounds: tc.rounds, calls: tc.calls},
				arm{"a", func(i int) error { a = append(a, i); return nil }},
				arm{"b", func(i int) error { b = append(b, i); return nil }})
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for r := 0; r < tc.rounds; r++ {
				for i := 0; i < tc.calls; i++ {
					want = append(want, i)
				}
			}
			if !slices.Equal(a, want) || !slices.Equal(b, want) {
				t.Errorf("call indexes a=%v b=%v, want %v each", a, b, want)
			}
		})
	}
	_, err := measureArms(plan{rounds: 2, calls: 3},
		arm{"ok", func(int) error { return nil }},
		arm{"broken", func(i int) error {
			if i == 1 {
				return fmt.Errorf("call %d", i)
			}
			return nil
		}})
	if err == nil || err.Error() != "broken: call 1" {
		t.Errorf("error = %v, want \"broken: call 1\"", err)
	}
}
