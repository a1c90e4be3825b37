package online

import (
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/verify"
)

// BenchmarkSessionResolve is one op of perfbench's session-churn workload
// in process, with no HTTP or JSON: a tree-unit session of 400 live jobs
// on three random 64-vertex trees takes 20 removes and 20 adds, resolves
// (a delta recompile and a warm solve), and checks the schedule with
// verify.Solution, as the server does before answering.
func BenchmarkSessionResolve(b *testing.B) {
	const jobs, churn = 400, 20
	rng := rand.New(rand.NewSource(1))
	p := gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 3, Demands: 2 * jobs, Shape: gen.ShapeRandom, Unit: true, AccessProb: 0.5}, rng)
	network := *p
	network.Demands = p.Demands[:jobs]
	s, err := NewSession(&network, Config{Algo: "tree-unit"})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Resolve(); err != nil {
		b.Fatal(err)
	}
	live, dead := make([]int64, jobs), make([]int64, jobs)
	for i := range live {
		live[i], dead[i] = int64(i), int64(jobs+i)
	}
	// draw moves churn random ids out of *from, appending them to dst.
	draw := func(from *[]int64, dst []int64) []int64 {
		for k := 0; k < churn; k++ {
			j := rng.Intn(len(*from))
			dst = append(dst, (*from)[j])
			(*from)[j] = (*from)[len(*from)-1]
			*from = (*from)[:len(*from)-1]
		}
		return dst
	}
	var removed, added []int64
	b.ReportAllocs()
	for b.Loop() {
		// Ids removed by the last op rejoin the pool only now: a job
		// pending removal cannot be re-added before the resolve.
		dead = append(dead, removed...)
		removed = draw(&live, removed[:0])
		added = draw(&dead, added[:0])
		live = append(live, added...)
		for _, id := range removed {
			if _, err := s.Apply(Event{Op: OpRemove, ID: id}); err != nil {
				b.Fatal(err)
			}
		}
		for _, id := range added {
			if _, err := s.Apply(Event{Op: OpAdd, Job: &Job{ID: id, Demand: p.Demands[id]}}); err != nil {
				b.Fatal(err)
			}
		}
		sched, err := s.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		if err := verify.Solution(sched.Problem, sched.Result.Selected); err != nil {
			b.Fatal(err)
		}
	}
}
