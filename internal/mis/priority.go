package mis

import (
	"slices"

	"treesched/internal/conflict"
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
// nothing in steady state. A Scratch is single-goroutine; size it for the
// largest (vertex count, clique count) pair it will see. The set returned
// by its methods aliases an internal buffer and is overwritten by the
// next call — callers that retain sets must copy them out.
type Scratch struct {
	st      []state
	prio    []float64
	und     []int32
	winners []int32
	out     []int32
	// Per-clique phase minima, reset lazily: a clique's top1 entry is
	// valid only when its stamp matches the current generation, so phases
	// touch only the cliques of still-undecided vertices.
	top1        []int32
	cliqueStamp []int32
	cliqueGen   int32
}

// NewScratch sizes a scratch for n vertices and numCliques cliques
// (numCliques may be 0 when only the explicit-graph routine is used).
func NewScratch(n, numCliques int) *Scratch {
	return &Scratch{
		st:          make([]state, n),
		prio:        make([]float64, n),
		top1:        make([]int32, numCliques),
		cliqueStamp: make([]int32, numCliques),
	}
}

// ensure re-sizes the buffers for a call on n vertices / nc cliques.
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

// initStates seeds the per-vertex states and the ascending undecided
// worklist from the active flags.
func (s *Scratch) initStates(active []bool) {
	for i := range s.st {
		if active[i] {
			s.st[i] = undecided
			s.und = append(s.und, int32(i))
		} else {
			s.st[i] = inactive
		}
	}
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

// LubyFuncImplicit mirrors LubyFunc over a clique cover: winners are the
// per-clique minima by (priority, index), exclusions are clique
// co-members. With the same priority function it returns exactly the same
// set and phase count as LubyFunc on the corresponding explicit graph.
// Each phase walks only the undecided vertices and their cliques (minima
// accumulated with lazily-stamped per-clique slots), so the cost tracks
// the shrinking frontier rather than the full cover.
func (s *Scratch) LubyFuncImplicit(im *conflict.Implicit, active []bool, prio func(i int32, phase int) float64) ([]int32, int) {
	s.ensure(im.N, im.NumCliques())
	s.initStates(active)
	st, p, top1 := s.st, s.prio, s.top1
	phase := 0
	better := func(a, b int32) bool {
		return p[a] < p[b] || (p[a] == p[b] && a < b)
	}
	for len(s.und) > 0 {
		phase++
		for _, i := range s.und {
			p[i] = prio(i, phase)
		}
		// Ascending accumulation over the undecided worklist reproduces
		// each clique's minimum over its undecided members exactly.
		s.cliqueGen++
		for _, i := range s.und {
			for _, k := range im.CliquesOf.Row(i) {
				if s.cliqueStamp[k] != s.cliqueGen {
					s.cliqueStamp[k] = s.cliqueGen
					top1[k] = i
				} else if better(i, top1[k]) {
					top1[k] = i
				}
			}
		}
		s.winners = s.winners[:0]
		for _, i := range s.und {
			best := true
			for _, k := range im.CliquesOf.Row(i) {
				if top1[k] != i {
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
			for _, k := range im.CliquesOf.Row(i) {
				for _, j := range im.Clique(k) {
					if st[j] == undecided {
						st[j] = excluded
					}
				}
			}
		}
		s.compactUndecided()
	}
	slices.Sort(s.out)
	return s.out, phase
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
	s.initStates(active)
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

// LubyFuncImplicit is the allocating form of Scratch.LubyFuncImplicit;
// the returned set is freshly allocated and safe to retain.
func LubyFuncImplicit(im *conflict.Implicit, active []bool, prio func(i int32, phase int) float64) ([]int32, int) {
	set, phases := NewScratch(im.N, im.NumCliques()).LubyFuncImplicit(im, active, prio)
	out := make([]int32, len(set))
	copy(out, set)
	return out, phases
}

// LubyFunc is the allocating form of Scratch.LubyFunc; the returned set
// is freshly allocated and safe to retain.
func LubyFunc(adj [][]int32, active []bool, prio func(i int32, phase int) float64) ([]int32, int) {
	set, phases := NewScratch(len(adj), 0).LubyFunc(adj, active, prio)
	out := make([]int32, len(set))
	copy(out, set)
	return out, phases
}
