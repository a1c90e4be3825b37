// Package instance defines the problem model of §2 and §7: demands owned by
// processors, networks (trees or a timeline of resources), accessibility
// sets, and the expansion of demands into demand instances.
//
// A Problem is the full input; Expand produces the set D of demand
// instances (one copy of each demand per accessible network — and, for
// line networks with windows, per feasible start time).
package instance

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"treesched/internal/graph"
)

// Kind distinguishes tree-network problems (§2) from line-network problems
// with windows (§7).
type Kind int

const (
	// KindTree: networks are trees over a shared vertex set; a demand is a
	// vertex pair and its path in each tree is unique.
	KindTree Kind = iota
	// KindLine: networks are identical timelines of NumSlots timeslots; a
	// demand is a window [Release, Deadline] with a processing time.
	KindLine
)

func (k Kind) String() string {
	if k == KindTree {
		return "tree"
	}
	return "line"
}

// Demand is the job owned by one processor. Exactly one of the endpoint
// form (U,V — tree problems) or the window form (Release, Deadline,
// ProcTime — line problems) is meaningful, per the Problem's Kind.
type Demand struct {
	ID int `json:"id"`

	// Tree form: the demand wishes to connect U and V.
	U int `json:"u,omitempty"`
	V int `json:"v,omitempty"`

	// Line form: execute for ProcTime contiguous slots within
	// [Release, Deadline] (inclusive, 0-based timeslots).
	Release  int `json:"release,omitempty"`
	Deadline int `json:"deadline,omitempty"`
	ProcTime int `json:"proctime,omitempty"`

	Profit float64 `json:"profit"`
	Height float64 `json:"height"`
	// Access lists the network (resource) indices the owning processor
	// can use.
	Access []int `json:"access"`
}

// Problem is a complete input instance.
type Problem struct {
	Kind Kind

	// Tree problems.
	Trees       []*graph.Tree
	NumVertices int

	// Line problems.
	NumSlots     int
	NumResources int

	Demands []Demand

	// Capacities optionally gives non-uniform edge bandwidths (the IPPS'13
	// title scope): Capacities[q][e] is the capacity of edge e of network
	// q, where e is a child-vertex edge id for trees and a timeslot for
	// lines. nil means every edge has capacity 1 (the paper's §1 setting).
	Capacities [][]float64
}

// NumNetworks returns r, the number of networks (trees or resources).
func (p *Problem) NumNetworks() int {
	if p.Kind == KindTree {
		return len(p.Trees)
	}
	return p.NumResources
}

// edgesPerNetwork returns the size of one network's edge-id space: n for
// trees (ids 1..n-1 used) and NumSlots for lines.
func (p *Problem) edgesPerNetwork() int {
	if p.Kind == KindTree {
		return p.NumVertices
	}
	return p.NumSlots
}

// EdgeSpace returns the size of the global edge-id space across all
// networks. Edge e of network q has global id q*edgesPerNetwork()+e.
func (p *Problem) EdgeSpace() int {
	return p.NumNetworks() * p.edgesPerNetwork()
}

// GlobalEdge maps (network, local edge) to the global edge id.
func (p *Problem) GlobalEdge(net int, e int32) int32 {
	return int32(net*p.edgesPerNetwork()) + e
}

// Capacity returns the capacity of a global edge id (1 when Capacities is
// nil).
func (p *Problem) Capacity(global int32) float64 {
	if p.Capacities == nil {
		return 1
	}
	per := p.edgesPerNetwork()
	return p.Capacities[int(global)/per][int(global)%per]
}

// Validate checks structural well-formedness.
func (p *Problem) Validate() error {
	switch p.Kind {
	case KindTree:
		if len(p.Trees) == 0 {
			return errors.New("instance: tree problem with no trees")
		}
		if p.NumVertices <= 0 {
			return errors.New("instance: NumVertices must be positive")
		}
		for q, t := range p.Trees {
			if t.N() != p.NumVertices {
				return fmt.Errorf("instance: tree %d has %d vertices, problem says %d", q, t.N(), p.NumVertices)
			}
		}
	case KindLine:
		if p.NumSlots <= 0 || p.NumResources <= 0 {
			return errors.New("instance: line problem needs NumSlots and NumResources positive")
		}
	default:
		return fmt.Errorf("instance: unknown kind %d", int(p.Kind))
	}
	if p.Capacities != nil {
		if len(p.Capacities) != p.NumNetworks() {
			return fmt.Errorf("instance: %d capacity rows for %d networks", len(p.Capacities), p.NumNetworks())
		}
		for q, row := range p.Capacities {
			if len(row) != p.edgesPerNetwork() {
				return fmt.Errorf("instance: capacity row %d has %d entries, want %d", q, len(row), p.edgesPerNetwork())
			}
			for e, c := range row {
				// Tree edge ids are child endpoints 1..n-1; slot 0 is the
				// root's nonexistent parent edge and is ignored.
				if p.Kind == KindTree && e == 0 {
					continue
				}
				if c <= 0 {
					return fmt.Errorf("instance: non-positive capacity %g at network %d edge %d", c, q, e)
				}
			}
		}
	}
	total := 0.0
	for i, d := range p.Demands {
		if d.ID != i {
			return fmt.Errorf("instance: demand %d has ID %d (IDs must be 0..m-1 in order)", i, d.ID)
		}
		if err := p.ValidateDemand(i, d); err != nil {
			return err
		}
		total += d.Profit
	}
	// Every profit is finite, but their sum need not be, and a solution's
	// profit is such a sum.
	if math.IsInf(total, 0) {
		return errors.New("instance: the total profit of the demands overflows float64")
	}
	return nil
}

// ValidateDemand checks one demand against the problem's networks (i
// names the demand in error messages). Validate applies it to every
// demand; incremental rebuilds apply it to newly added demands only,
// since removal and renumbering cannot invalidate a surviving demand.
func (p *Problem) ValidateDemand(i int, d Demand) error {
	r := p.NumNetworks()
	if d.Profit <= 0 {
		return fmt.Errorf("instance: demand %d has non-positive profit %g", i, d.Profit)
	}
	if d.Height <= 0 || d.Height > 1 {
		return fmt.Errorf("instance: demand %d has height %g outside (0,1]", i, d.Height)
	}
	if len(d.Access) == 0 {
		return fmt.Errorf("instance: demand %d has empty access set", i)
	}
	seen := map[int]bool{}
	for _, q := range d.Access {
		if q < 0 || q >= r {
			return fmt.Errorf("instance: demand %d accesses network %d of %d", i, q, r)
		}
		if seen[q] {
			return fmt.Errorf("instance: demand %d lists network %d twice", i, q)
		}
		seen[q] = true
	}
	switch p.Kind {
	case KindTree:
		if d.U < 0 || d.U >= p.NumVertices || d.V < 0 || d.V >= p.NumVertices {
			return fmt.Errorf("instance: demand %d endpoints (%d,%d) out of range", i, d.U, d.V)
		}
		if d.U == d.V {
			return fmt.Errorf("instance: demand %d has equal endpoints", i)
		}
	case KindLine:
		if d.ProcTime <= 0 {
			return fmt.Errorf("instance: demand %d has non-positive processing time", i)
		}
		if d.Release < 0 || d.Deadline >= p.NumSlots || d.Release > d.Deadline {
			return fmt.Errorf("instance: demand %d window [%d,%d] invalid for %d slots", i, d.Release, d.Deadline, p.NumSlots)
		}
		if d.Deadline-d.Release+1 < d.ProcTime {
			return fmt.Errorf("instance: demand %d window shorter than processing time", i)
		}
	}
	return nil
}

// Inst is a demand instance (§2): one possible placement of a demand on a
// network. For tree problems U,V are the demand endpoints; for line
// problems U is the first and V the last occupied timeslot.
type Inst struct {
	ID     int32
	Demand int32
	Net    int32
	U, V   int32
	Profit float64
	Height float64
}

// Len returns the line-instance length in timeslots (V-U+1). For tree
// instances it is meaningless.
func (d Inst) Len() int32 { return d.V - d.U + 1 }

// Expand builds the full set D of demand instances in a deterministic
// order: by demand, then by access-list order, then (lines) by start slot.
func (p *Problem) Expand() []Inst {
	var out []Inst
	for _, d := range p.Demands {
		out = p.ExpandDemand(out, d)
	}
	return out
}

// ExpandDemand appends the instances of one demand to out in the
// canonical order (access-list order, then start slot for lines),
// numbering them consecutively from len(out). Expand is the whole-problem
// form; incremental rebuilds expand only the newly added demands.
func (p *Problem) ExpandDemand(out []Inst, d Demand) []Inst {
	id := int32(len(out))
	for _, q := range d.Access {
		switch p.Kind {
		case KindTree:
			out = append(out, Inst{
				ID: id, Demand: int32(d.ID), Net: int32(q),
				U: int32(d.U), V: int32(d.V),
				Profit: d.Profit, Height: d.Height,
			})
			id++
		case KindLine:
			for s := d.Release; s+d.ProcTime-1 <= d.Deadline; s++ {
				out = append(out, Inst{
					ID: id, Demand: int32(d.ID), Net: int32(q),
					U: int32(s), V: int32(s + d.ProcTime - 1),
					Profit: d.Profit, Height: d.Height,
				})
				id++
			}
		}
	}
	return out
}

// PathEdges returns the global edge ids occupied by instance d.
func (p *Problem) PathEdges(d Inst) []int32 {
	if p.Kind == KindTree {
		local := p.Trees[d.Net].PathEdges(int(d.U), int(d.V))
		out := make([]int32, len(local))
		for i, e := range local {
			out[i] = p.GlobalEdge(int(d.Net), e)
		}
		return out
	}
	out := make([]int32, 0, d.V-d.U+1)
	for s := d.U; s <= d.V; s++ {
		out = append(out, p.GlobalEdge(int(d.Net), s))
	}
	return out
}

// PathLen returns len(PathEdges(d)) without materializing the path: the
// tree distance U→V, or the slot count for lines. It is the counting
// pass of the preallocated path build in model.Build.
func (p *Problem) PathLen(d Inst) int {
	if p.Kind == KindTree {
		return p.Trees[d.Net].Dist(int(d.U), int(d.V))
	}
	return int(d.V - d.U + 1)
}

// FillPathEdges writes the global edge ids of instance d's path into dst
// (len(dst) must be PathLen(d)), in exactly PathEdges order — ascending
// from U to the LCA, then descending to V for trees; slot order for
// lines. It is the allocation-free form of PathEdges used to materialize
// paths directly into a preallocated CSR slab.
func (p *Problem) FillPathEdges(dst []int32, d Inst) {
	if p.Kind == KindLine {
		for k, s := 0, d.U; s <= d.V; s++ {
			dst[k] = p.GlobalEdge(int(d.Net), s)
			k++
		}
		return
	}
	t := p.Trees[d.Net]
	l := t.LCA(int(d.U), int(d.V))
	k := 0
	for x := int(d.U); x != l; x = t.Parent(x) {
		dst[k] = p.GlobalEdge(int(d.Net), int32(x))
		k++
	}
	// Edges from the LCA down to V are discovered bottom-up; reverse that
	// suffix in place, mirroring Tree.PathEdges.
	mark := k
	for x := int(d.V); x != l; x = t.Parent(x) {
		dst[k] = p.GlobalEdge(int(d.Net), int32(x))
		k++
	}
	for i, j := mark, k-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Overlap reports whether two instances share a network edge.
func (p *Problem) Overlap(a, b Inst) bool {
	if a.Net != b.Net {
		return false
	}
	if p.Kind == KindTree {
		return p.Trees[a.Net].PathsOverlap(int(a.U), int(a.V), int(b.U), int(b.V))
	}
	return a.U <= b.V && b.U <= a.V
}

// Conflict reports whether two instances conflict (§2): they belong to the
// same demand or they overlap.
func (p *Problem) Conflict(a, b Inst) bool {
	if a.ID == b.ID {
		return false
	}
	return a.Demand == b.Demand || p.Overlap(a, b)
}

// ProfitRange returns (pmin, pmax) over all demands.
func (p *Problem) ProfitRange() (float64, float64) {
	pmin, pmax := 0.0, 0.0
	for i, d := range p.Demands {
		if i == 0 || d.Profit < pmin {
			pmin = d.Profit
		}
		if i == 0 || d.Profit > pmax {
			pmax = d.Profit
		}
	}
	return pmin, pmax
}

// HeightRange returns (hmin, hmax) over all demands.
func (p *Problem) HeightRange() (float64, float64) {
	hmin, hmax := 0.0, 0.0
	for i, d := range p.Demands {
		if i == 0 || d.Height < hmin {
			hmin = d.Height
		}
		if i == 0 || d.Height > hmax {
			hmax = d.Height
		}
	}
	return hmin, hmax
}

// UnitHeight reports whether every demand has height exactly 1.
func (p *Problem) UnitHeight() bool {
	for _, d := range p.Demands {
		if d.Height != 1 {
			return false
		}
	}
	return true
}

// CommGraph builds the processor communication graph (§2): processors are
// adjacent iff their access sets intersect. It returns adjacency lists
// over demand/processor ids, each ascending, without the processor itself
// and without duplicates. The rows are windows into one backing array,
// capacity-limited so an append to one cannot overwrite the next.
//
// Degrees are counted first; then every processor j, in ascending order,
// is written into the rows of its neighbors, which leaves each row
// ascending with no sort.
func (p *Problem) CommGraph() [][]int32 {
	m := len(p.Demands)
	// Network q's processors, ascending, are byNet[netOff[q]:netOff[q+1]].
	netOff := make([]int32, p.NumNetworks()+1)
	for _, d := range p.Demands {
		for _, q := range d.Access {
			netOff[q+1]++
		}
	}
	for q := 1; q < len(netOff); q++ {
		netOff[q] += netOff[q-1]
	}
	byNet := make([]int32, netOff[len(netOff)-1])
	fill := slices.Clone(netOff)
	for _, d := range p.Demands {
		for _, q := range d.Access {
			byNet[fill[q]] = int32(d.ID)
			fill[q]++
		}
	}
	seen := make([]int32, m)
	for i := range seen {
		seen[i] = -1
	}
	var row []int32
	// neighbors lists processor i's neighbors into row, in access order,
	// marking each in seen with mark; every call needs a fresh mark.
	neighbors := func(i int, mark int32) []int32 {
		row = row[:0]
		seen[i] = mark // exclude self
		for _, q := range p.Demands[i].Access {
			for _, j := range byNet[netOff[q]:netOff[q+1]] {
				if seen[j] != mark {
					seen[j] = mark
					row = append(row, j)
				}
			}
		}
		return row
	}
	off := make([]int, m+1)
	for i := range m {
		off[i+1] = off[i] + len(neighbors(i, int32(i)))
	}
	flat := make([]int32, off[m])
	cursor := slices.Clone(off)
	for j := range m {
		for _, i := range neighbors(j, int32(m+j)) {
			flat[cursor[i]] = int32(j)
			cursor[i]++
		}
	}
	adj := make([][]int32, m)
	for i := range adj {
		adj[i] = flat[off[i]:off[i+1]:off[i+1]]
	}
	return adj
}
