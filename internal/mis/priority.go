package mis

import (
	"math"
	"slices"

	"treesched/internal/model"
)

// Priority returns a deterministic pseudo-random priority in [0,1) for a
// demand instance at a given (step, phase) position of the algorithm. The
// centralized and distributed executors both draw priorities through this
// function, so with equal seeds they compute identical maximal independent
// sets — the equivalence the tests assert.
//
// The generator is splitmix64 over the packed coordinates.
func Priority(seed uint64, inst int32, step uint64, phase int) float64 {
	x := seed
	x ^= uint64(inst) * 0x9E3779B97F4A7C15
	x ^= step * 0xBF58476D1CE4E5B9
	x ^= uint64(phase) * 0x94D049BB133111EB
	// splitmix64 finalizer.
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z = z ^ (z >> 31)
	return float64(z>>11) / float64(1<<53)
}

// Scratch holds the reusable state of the deterministic-priority Luby
// routines so a solver calling them once per framework step allocates
// nothing in steady state. The zero Scratch is ready to use and sizes
// itself on each call. A Scratch is single-goroutine. The set returned
// by its methods aliases an internal buffer and is overwritten by the
// next call — callers that retain sets must copy them out.
//
// A call writes the states of its own candidates only and ends with none
// of them undecided, and undecided is the one state a call reads of a
// vertex outside its worklist; so stale states from earlier calls, on
// this model or another, need no reset.
type Scratch struct {
	st      []state
	prio    []float64
	und     []int32
	winners []int32
	out     []int32
	// Per-clique stamps, reset lazily: a clique's top1 entry is the
	// phase's minimum only when its stamp matches the offer generation,
	// and a clique holds a winner when its stamp matches the exclusion
	// generation that follows, so phases touch only the cliques of
	// still-undecided vertices and of winners.
	top1        []int32
	cliqueStamp []int32
	cliqueGen   int32
}

// ensure sizes the buffers for a call on n vertices and nc cliques and
// empties the worklists. A state buffer grown here starts inactive.
func (s *Scratch) ensure(n, nc int) {
	if cap(s.st) < n {
		s.st = make([]state, n)
		s.prio = make([]float64, n)
	}
	s.st = s.st[:n]
	s.prio = s.prio[:n]
	if cap(s.top1) < nc {
		s.top1 = make([]int32, nc)
		s.cliqueStamp = make([]int32, nc)
	}
	s.top1 = s.top1[:nc]
	s.cliqueStamp = s.cliqueStamp[:nc]
	s.und = s.und[:0]
	s.winners = s.winners[:0]
	s.out = s.out[:0]
}

// compactUndecided drops decided vertices from the worklist, preserving
// ascending order.
func (s *Scratch) compactUndecided() {
	keep := s.und[:0]
	for _, i := range s.und {
		if s.st[i] == undecided {
			keep = append(keep, i)
		}
	}
	s.und = keep
}

// LubyCover computes a maximal independent set of m's conflict graph
// induced by the active instances, over the model's own clique cover.
// Two instances conflict exactly when they share a demand or an edge, so
// the cover is rows the model already holds: demand clique a is
// m.InstsOf.Row(a), edge clique D+e (D = m.InstsOf.Rows()) is
// m.EdgeInsts.Row(e), and instance i lies in its demand's clique and in
// one clique per edge of m.Paths.Row(i). cands lists, ascending, a
// superset of the active instances — Phase1 passes its stage's active
// list — and seeds the worklist, so a call costs nothing for instances
// outside it.
//
// Winners are the per-clique minima by (priority, index), exclusions are
// clique co-members. A singleton clique changes no winner and excludes
// nobody, so with the same priority function LubyCover returns exactly
// the set and phase count LubyFunc returns on conflict.Build(m). Each
// phase walks only the undecided vertices and their cliques: minima
// accumulate in lazily-stamped per-clique slots, and exclusion stamps the
// winners' cliques and then sweeps the undecided frontier for members of
// a stamped clique, instead of walking the winners' whole rows — rows
// that list every instance on an edge, candidate or not. The cost tracks
// the shrinking frontier rather than the full cover.
func (s *Scratch) LubyCover(m *model.Model, cands []int32, active []bool, prio func(i int32, phase int) float64) ([]int32, int) {
	nd := int32(m.InstsOf.Rows())
	s.ensure(len(m.Insts), int(nd)+m.EdgeInsts.Rows())
	for _, i := range cands {
		if active[i] {
			s.st[i] = undecided
			s.und = append(s.und, i)
		}
	}
	st, p, top1, stamp := s.st, s.prio, s.top1, s.cliqueStamp
	// offer makes i the phase's minimum of clique k when it is the first
	// undecided member seen or beats the current one by (priority, index).
	offer := func(k, i int32) {
		if stamp[k] != s.cliqueGen {
			stamp[k] = s.cliqueGen
			top1[k] = i
		} else if j := top1[k]; p[i] < p[j] || (p[i] == p[j] && i < j) {
			top1[k] = i
		}
	}
	phase := 0
	for len(s.und) > 0 {
		phase++
		for _, i := range s.und {
			p[i] = prio(i, phase)
		}
		s.nextGen()
		for _, i := range s.und {
			offer(m.Insts[i].Demand, i)
			for _, e := range m.Paths.Row(i) {
				offer(nd+e, i)
			}
		}
		s.winners = s.winners[:0]
	next:
		for _, i := range s.und {
			if top1[m.Insts[i].Demand] != i {
				continue
			}
			for _, e := range m.Paths.Row(i) {
				if top1[nd+e] != i {
					continue next
				}
			}
			s.winners = append(s.winners, i)
		}
		// Stamp the winners' cliques under a fresh generation, then keep
		// the undecided members that lie in none of them.
		gen := s.nextGen()
		for _, i := range s.winners {
			st[i] = inMIS
			s.out = append(s.out, i)
			stamp[m.Insts[i].Demand] = gen
			for _, e := range m.Paths.Row(i) {
				stamp[nd+e] = gen
			}
		}
		keep := s.und[:0]
	sweep:
		for _, i := range s.und {
			if st[i] != undecided {
				continue
			}
			if stamp[m.Insts[i].Demand] == gen {
				st[i] = excluded
				continue
			}
			for _, e := range m.Paths.Row(i) {
				if stamp[nd+e] == gen {
					st[i] = excluded
					continue sweep
				}
			}
			keep = append(keep, i)
		}
		s.und = keep
	}
	slices.Sort(s.out)
	return s.out, phase
}

// nextGen advances the clique-stamp generation. Before the counter would
// wrap it clears every stamp, the ones past the current length included,
// so no stale stamp can ever equal a live generation.
func (s *Scratch) nextGen() int32 {
	if s.cliqueGen == math.MaxInt32 {
		clear(s.cliqueStamp[:cap(s.cliqueStamp)])
		s.cliqueGen = 0
	}
	s.cliqueGen++
	return s.cliqueGen
}

// LubyFunc computes a maximal independent set of the subgraph of the
// adjacency lists adj induced by the active vertices. Each phase draws
// prio(vertex, phase) for the undecided vertices, and a vertex joins when
// it beats every undecided neighbor by (priority, index) order; the
// deterministic priorities are what let the distributed and centralized
// drivers elect the same sets. It returns the set (ascending) and the
// number of phases, each O(1) communication rounds in the distributed
// implementation.
func (s *Scratch) LubyFunc(adj [][]int32, active []bool, prio func(i int32, phase int) float64) ([]int32, int) {
	s.ensure(len(adj), 0)
	for i, a := range active {
		if a {
			s.st[i] = undecided
			s.und = append(s.und, int32(i))
		}
	}
	st, p := s.st, s.prio
	phase := 0
	for len(s.und) > 0 {
		phase++
		// Priorities of decided vertices are never read (the winner scan
		// skips them before comparing), so only the worklist draws.
		for _, i := range s.und {
			p[i] = prio(i, phase)
		}
		s.winners = s.winners[:0]
		for _, i := range s.und {
			best := true
			for _, j := range adj[i] {
				if st[j] != undecided {
					continue
				}
				if p[j] < p[i] || (p[j] == p[i] && j < i) {
					best = false
					break
				}
			}
			if best {
				s.winners = append(s.winners, i)
			}
		}
		for _, i := range s.winners {
			st[i] = inMIS
			s.out = append(s.out, i)
		}
		for _, i := range s.winners {
			for _, j := range adj[i] {
				if st[j] == undecided {
					st[j] = excluded
				}
			}
		}
		s.compactUndecided()
	}
	slices.Sort(s.out)
	return s.out, phase
}

// LubyFunc is Scratch.LubyFunc on a scratch of its own, so the returned
// set is safe to retain.
func LubyFunc(adj [][]int32, active []bool, prio func(i int32, phase int) float64) ([]int32, int) {
	return new(Scratch).LubyFunc(adj, active, prio)
}
