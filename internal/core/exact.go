package core

import (
	"fmt"
	"slices"
	"sort"

	"treesched/internal/instance"
	"treesched/internal/lp"
	"treesched/internal/obs"
)

// ErrExactTooLarge is returned when branch and bound exceeds its node
// budget.
var ErrExactTooLarge = fmt.Errorf("core: exact solver exceeded its node budget")

// Exact computes the optimal solution by branch and bound, for measuring
// true approximation ratios on small instances (the problem is NP-hard —
// §1 — so this cannot scale). opts.MaxNodes caps the search-tree size;
// 0 means 50 million. Epsilon, Seed and FixedRounds are ignored.
func (c *Compiled) Exact(opts Options) (*Result, error) {
	opts = c.prep(opts)
	tel := opts.Telemetry
	sm, err := telModel(tel, c.fullModel)
	if err != nil {
		return nil, err
	}
	m := sm.m
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 50_000_000
	}
	n := len(m.Insts)
	// Order instances by profit descending for earlier good incumbents.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return m.Insts[order[a]].Profit > m.Insts[order[b]].Profit
	})
	// ub[k] bounds the profit attainable from order[k:]: each demand's
	// best remaining instance counted once.
	ub := make([]float64, n+1)
	bestOf := make(map[int32]float64)
	for k := n - 1; k >= 0; k-- {
		d := m.Insts[order[k]]
		ub[k] = ub[k+1]
		if d.Profit > bestOf[d.Demand] {
			ub[k] += d.Profit - bestOf[d.Demand]
			bestOf[d.Demand] = d.Profit
		}
	}

	sp := tel.Begin("search")
	load := make([]float64, m.EdgeSpace)
	used := make([]bool, m.NumDemands)
	var best float64
	var bestSet []int32
	cur := make([]int32, 0, n)
	var nodes int64

	var dfs func(k int, profit float64) error
	dfs = func(k int, profit float64) error {
		nodes++
		if nodes > maxNodes {
			return ErrExactTooLarge
		}
		if profit > best {
			best = profit
			bestSet = append(bestSet[:0], cur...)
		}
		if k == n || profit+ub[k] <= best+lp.Tol {
			return nil
		}
		i := order[k]
		d := m.Insts[i]
		// Branch 1: take i if feasible.
		if !used[d.Demand] {
			fits := true
			for _, e := range m.Paths.Row(i) {
				if load[e]+d.Height > m.Cap[e]+lp.Tol {
					fits = false
					break
				}
			}
			if fits {
				used[d.Demand] = true
				for _, e := range m.Paths.Row(i) {
					load[e] += d.Height
				}
				cur = append(cur, i)
				if err := dfs(k+1, profit+d.Profit); err != nil {
					return err
				}
				cur = cur[:len(cur)-1]
				for _, e := range m.Paths.Row(i) {
					load[e] -= d.Height
				}
				used[d.Demand] = false
			}
		}
		// Branch 2: skip i.
		return dfs(k+1, profit)
	}
	err = dfs(0, 0)
	if tel != nil {
		tel.Add(sp, "nodes", nodes)
	}
	tel.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tel.Begin("assemble")
	defer tel.End(sp)
	res := &Result{Name: "exact", Lambda: 1, Bound: 1, Model: m}
	slices.Sort(bestSet)
	for _, i := range bestSet {
		res.Selected = append(res.Selected, m.Insts[i])
		res.Profit += m.Insts[i].Profit
	}
	res.DualUB = res.Profit
	res.CertifiedRatio = 1
	return res, nil
}

// Greedy is the naive baseline: instances by descending profit, added when
// they fit. No approximation guarantee; used for experiment context.
// Only Telemetry and CompileWorkers are read from opts.
func (c *Compiled) Greedy(opts Options) (*Result, error) {
	opts = c.prep(opts)
	tel := opts.Telemetry
	sm, err := telModel(tel, c.fullModel)
	if err != nil {
		return nil, err
	}
	m := sm.m
	n := len(m.Insts)
	sp := tel.Begin("select")
	defer tel.End(sp)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return m.Insts[order[a]].Profit > m.Insts[order[b]].Profit
	})
	load := make([]float64, m.EdgeSpace)
	used := make([]bool, m.NumDemands)
	res := &Result{Name: "greedy", Model: m}
	for _, i := range order {
		d := m.Insts[i]
		if used[d.Demand] {
			continue
		}
		fits := true
		for _, e := range m.Paths.Row(i) {
			if load[e]+d.Height > m.Cap[e]+lp.Tol {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		used[d.Demand] = true
		for _, e := range m.Paths.Row(i) {
			load[e] += d.Height
		}
		res.Selected = append(res.Selected, d)
		res.Profit += d.Profit
	}
	sort.Slice(res.Selected, func(a, b int) bool { return res.Selected[a].ID < res.Selected[b].ID })
	return res, nil
}

// GreedyTraced is Greedy with a phase timeline recorded on tel. It stays
// only because the end-to-end benchmark module calls it
// (perfbench/traced.go), and that module must keep building against
// this API unchanged; new code sets Options.Telemetry on Greedy.
func (c *Compiled) GreedyTraced(tel *obs.Trace) (*Result, error) {
	return c.Greedy(Options{Telemetry: tel})
}

// instanceKey identifies an instance descriptor for set comparisons.
func instanceKey(d instance.Inst) [4]int32 {
	return [4]int32{d.Demand, d.Net, d.U, d.V}
}

// SameSelection reports whether two results selected identical instance
// sets (by demand, network and placement).
func SameSelection(a, b *Result) bool {
	if len(a.Selected) != len(b.Selected) {
		return false
	}
	set := make(map[[4]int32]bool, len(a.Selected))
	for _, d := range a.Selected {
		set[instanceKey(d)] = true
	}
	for _, d := range b.Selected {
		if !set[instanceKey(d)] {
			return false
		}
	}
	return true
}
