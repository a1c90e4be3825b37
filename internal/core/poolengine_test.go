package core

import (
	"math"
	"reflect"
	"testing"

	"treesched/internal/scenario"
)

// equivParams caps a preset's sizing so the sweep stays fast: the large-
// network presets run the same generators at benchmark scale, but the
// engine-equivalence property is size-independent.
func equivParams(s *scenario.Scenario) scenario.Params {
	p := s.Defaults
	if p.Demands > 48 {
		p.Demands = 48
	}
	if p.Networks > 8 {
		p.Networks = 8
	}
	if p.Size > 128 {
		p.Size = 128
	}
	return p
}

// TestPoolEngineMatchesBlockingEverywhere is the tentpole acceptance
// sweep: for every scenario preset × distributed algorithm × 3 seeds,
// the sharded worker-pool engine (DistWorkers ≥ 0, several worker
// counts) must produce byte-identical Stats and schedules to the
// goroutine-per-processor baseline (DistWorkers < 0).
func TestPoolEngineMatchesBlockingEverywhere(t *testing.T) {
	for _, s := range scenario.All() {
		for _, algo := range Algorithms() {
			if !algo.ReadsFixedRounds {
				continue // the distributed drivers are exactly the entries FixedRounds reaches
			}
			for seed := uint64(1); seed <= 3; seed++ {
				p, err := s.Generate(equivParams(s), int64(seed))
				if err != nil {
					t.Fatalf("%s: generate: %v", s.Name, err)
				}
				c, err := Compile(p, 0)
				if err != nil {
					t.Fatalf("%s: compile: %v", s.Name, err)
				}
				base := Options{Epsilon: 0.25, Seed: seed}

				blockOpts := base
				blockOpts.DistWorkers = -1
				ref, refErr := runDist(algo, c, blockOpts)

				for _, workers := range []int{0, 1, 3} {
					poolOpts := base
					poolOpts.DistWorkers = workers
					got, gotErr := runDist(algo, c, poolOpts)
					if (refErr == nil) != (gotErr == nil) {
						t.Fatalf("%s/%s seed %d workers %d: engines disagree on applicability: blocking err %v, pool err %v",
							s.Name, algo.Name, seed, workers, refErr, gotErr)
					}
					if refErr != nil {
						if refErr.Error() != gotErr.Error() {
							t.Fatalf("%s/%s seed %d workers %d: errors differ: %v vs %v",
								s.Name, algo.Name, seed, workers, refErr, gotErr)
						}
						continue
					}
					assertDistEqual(t, s.Name, algo.Name, seed, workers, ref, got)
				}
				if refErr != nil {
					break // inapplicable pair: no need to re-try seeds
				}
			}
		}
	}
}

// TestPoolEngineMatchesBlockingFixedRounds covers the deterministic
// fixed-rounds schedule (no aggregations at all) on the round-scaling
// workload.
func TestPoolEngineMatchesBlockingFixedRounds(t *testing.T) {
	s, ok := scenario.Get("binary-fanout")
	if !ok {
		t.Fatal("binary-fanout preset missing")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		p, err := s.Generate(scenario.Params{}, int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		base := Options{Epsilon: 0.25, Seed: seed, FixedRounds: true}
		blockOpts := base
		blockOpts.DistWorkers = -1
		ref, err := c.DistributedUnit(blockOpts)
		if err != nil {
			t.Fatalf("seed %d blocking: %v", seed, err)
		}
		if ref.Net.Aggregations != 0 {
			t.Fatalf("seed %d: fixed-rounds run recorded %d aggregations", seed, ref.Net.Aggregations)
		}
		poolOpts := base
		poolOpts.DistWorkers = 2
		got, err := c.DistributedUnit(poolOpts)
		if err != nil {
			t.Fatalf("seed %d pool: %v", seed, err)
		}
		assertDistEqual(t, "binary-fanout(fixed)", "dist-unit", seed, 2, ref, got)
	}
}

func assertDistEqual(t *testing.T, scen, algo string, seed uint64, workers int, ref, got *DistributedResult) {
	t.Helper()
	if got.Net != ref.Net {
		t.Fatalf("%s/%s seed %d workers %d: Stats differ: pool %+v vs blocking %+v",
			scen, algo, seed, workers, got.Net, ref.Net)
	}
	if !reflect.DeepEqual(got.Selected, ref.Selected) {
		t.Fatalf("%s/%s seed %d workers %d: schedules differ:\npool     %v\nblocking %v",
			scen, algo, seed, workers, got.Selected, ref.Selected)
	}
	if got.Profit != ref.Profit || got.Lambda != ref.Lambda || got.Bound != ref.Bound {
		t.Fatalf("%s/%s seed %d workers %d: result scalars differ", scen, algo, seed, workers)
	}
	if math.Abs(got.DualUB-ref.DualUB) > 1e-12*(1+math.Abs(ref.DualUB)) {
		t.Fatalf("%s/%s seed %d workers %d: dual objectives differ: %g vs %g",
			scen, algo, seed, workers, got.DualUB, ref.DualUB)
	}
}
