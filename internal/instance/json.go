package instance

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"

	"treesched/internal/graph"
	"treesched/internal/wire"
)

// problemJSON is the wire form of a Problem; trees are stored as edge
// lists. EncodeWire and DecodeWire implement this form by hand; the
// encoding/json round trip over this struct is their fallback and the
// reference their tests compare against.
type problemJSON struct {
	Kind         string      `json:"kind"`
	NumVertices  int         `json:"num_vertices,omitempty"`
	TreeEdges    [][][2]int  `json:"tree_edges,omitempty"`
	NumSlots     int         `json:"num_slots,omitempty"`
	NumResources int         `json:"num_resources,omitempty"`
	Demands      []Demand    `json:"demands"`
	Capacities   [][]float64 `json:"capacities,omitempty"`
}

// MarshalJSON encodes the problem with trees as edge lists (EncodeWire).
func (p *Problem) MarshalJSON() ([]byte, error) {
	w := wire.NewWriter(nil, nil)
	if err := p.EncodeWire(w); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// EncodeWire writes the problem's wire form: byte for byte what
// json.Marshal writes for problemJSON, so the canonical problem hash,
// and every cache key built on it, is the one encoding/json defined.
// Trees are walked through Parent, never copied into edge lists. The
// only error is a NaN or infinite float, which JSON cannot carry.
func (p *Problem) EncodeWire(w *wire.Writer) error {
	w.Raw(`{"kind":"`)
	w.Raw(p.Kind.String())
	w.Byte('"')
	optInt(w, `,"num_vertices":`, p.NumVertices)
	if len(p.Trees) > 0 {
		w.Raw(`,"tree_edges":[`)
		for q, t := range p.Trees {
			if q > 0 {
				w.Byte(',')
			}
			w.Byte('[')
			for v := 1; v < t.N(); v++ {
				if v > 1 {
					w.Byte(',')
				}
				w.Byte('[')
				w.Int(v)
				w.Byte(',')
				w.Int(t.Parent(v))
				w.Byte(']')
			}
			w.Byte(']')
		}
		w.Byte(']')
	}
	optInt(w, `,"num_slots":`, p.NumSlots)
	optInt(w, `,"num_resources":`, p.NumResources)
	w.Raw(`,"demands":`)
	if p.Demands == nil {
		w.Raw("null")
	} else {
		w.Byte('[')
		for i := range p.Demands {
			if i > 0 {
				w.Byte(',')
			}
			if err := encodeDemand(w, &p.Demands[i]); err != nil {
				return err
			}
		}
		w.Byte(']')
	}
	if len(p.Capacities) > 0 {
		w.Raw(`,"capacities":[`)
		for q, row := range p.Capacities {
			if q > 0 {
				w.Byte(',')
			}
			if row == nil {
				w.Raw("null")
				continue
			}
			w.Byte('[')
			for e, c := range row {
				if e > 0 {
					w.Byte(',')
				}
				if err := encodeFloat(w, c); err != nil {
					return err
				}
			}
			w.Byte(']')
		}
		w.Byte(']')
	}
	w.Byte('}')
	return nil
}

// encodeDemand writes one Demand as encoding/json does: fields in
// declaration order, the omitempty ints left out at zero.
func encodeDemand(w *wire.Writer, d *Demand) error {
	w.Raw(`{"id":`)
	w.Int(d.ID)
	optInt(w, `,"u":`, d.U)
	optInt(w, `,"v":`, d.V)
	optInt(w, `,"release":`, d.Release)
	optInt(w, `,"deadline":`, d.Deadline)
	optInt(w, `,"proctime":`, d.ProcTime)
	w.Raw(`,"profit":`)
	if err := encodeFloat(w, d.Profit); err != nil {
		return err
	}
	w.Raw(`,"height":`)
	if err := encodeFloat(w, d.Height); err != nil {
		return err
	}
	w.Raw(`,"access":`)
	if d.Access == nil {
		w.Raw("null")
	} else {
		w.Byte('[')
		for i, q := range d.Access {
			if i > 0 {
				w.Byte(',')
			}
			w.Int(q)
		}
		w.Byte(']')
	}
	w.Byte('}')
	return nil
}

// optInt writes an omitempty int member: key (its comma, quotes and
// colon included) and v, or nothing when v is 0.
func optInt(w *wire.Writer, key string, v int) {
	if v != 0 {
		w.Raw(key)
		w.Int(v)
	}
}

// encodeFloat writes f, failing with encoding/json's own error for the
// values JSON cannot represent.
func encodeFloat(w *wire.Writer, f float64) error {
	if !w.Float(f) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

// UnmarshalJSON decodes the wire form and rebuilds the trees: in one
// pass through DecodeWire when data lies inside the fast subset, through
// UnmarshalReflect otherwise.
func (p *Problem) UnmarshalJSON(data []byte) error {
	d := wire.NewDecoder(data)
	if q := DecodeWire(d); q != nil && d.End() {
		*p = *q
		return nil
	}
	return p.UnmarshalReflect(data)
}

// UnmarshalReflect decodes the wire form through encoding/json alone.
// It is UnmarshalJSON's fallback for input outside the fast subset, so
// lenient input and every decode error message come from here, and it
// is the reference the codec's tests compare DecodeWire against.
func (p *Problem) UnmarshalReflect(data []byte) error {
	var w problemJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if err := w.build(p); err != nil {
		return err
	}
	return p.Validate()
}

// build sets p from the wire struct, rebuilding the trees; it does not
// validate.
func (w *problemJSON) build(p *Problem) error {
	switch w.Kind {
	case "tree":
		p.Kind = KindTree
	case "line":
		p.Kind = KindLine
	default:
		return fmt.Errorf("instance: unknown kind %q", w.Kind)
	}
	p.NumVertices = w.NumVertices
	p.NumSlots = w.NumSlots
	p.NumResources = w.NumResources
	p.Demands = w.Demands
	p.Capacities = w.Capacities
	p.Trees = nil
	for q, edges := range w.TreeEdges {
		t, err := graph.NewTree(w.NumVertices, edges)
		if err != nil {
			return fmt.Errorf("instance: tree %d: %w", q, err)
		}
		p.Trees = append(p.Trees, t)
	}
	return nil
}

// DecodeWire parses one problem in wire form at d's position, in a
// single pass, and runs graph.NewTree and Validate on it. The fast
// subset is what encoding/json emits for problemJSON: exact member
// names, each at most once, no nulls, integer literals for int fields,
// [u,v] edge pairs. On anything else, and on a problem NewTree or
// Validate rejects, it returns nil with d declined: the caller then
// decodes the whole input through encoding/json, which yields the
// lenient value or the error message encoding/json always gave. The
// result shares no memory with d's input.
func DecodeWire(d *wire.Decoder) *Problem {
	var (
		p        Problem
		seen     uint
		edges    [][2]int // every tree's edges, back to back
		treeEnds []int    // tree q's edges end at edges[treeEnds[q]]
	)
	if !d.Open('{') {
		d.Decline()
		return nil
	}
	for more := true; more; more = d.More('}') {
		var bit uint
		switch string(d.Key()) {
		case "kind":
			bit = 1 << 0
			switch string(d.Str()) {
			case "tree":
				p.Kind = KindTree
			case "line":
				p.Kind = KindLine
			default:
				d.Decline()
			}
		case "num_vertices":
			bit = 1 << 1
			p.NumVertices = d.Int()
		case "tree_edges":
			bit = 1 << 2
			edges, treeEnds = decodeTreeEdges(d)
		case "num_slots":
			bit = 1 << 3
			p.NumSlots = d.Int()
		case "num_resources":
			bit = 1 << 4
			p.NumResources = d.Int()
		case "demands":
			bit = 1 << 5
			p.Demands = decodeDemands(d)
		case "capacities":
			bit = 1 << 6
			p.Capacities = decodeCapacities(d)
		default:
			d.Decline()
		}
		if seen&bit != 0 {
			d.Decline()
		}
		seen |= bit
	}
	if d.Declined() || seen&1 == 0 {
		d.Decline()
		return nil
	}
	if len(treeEnds) > 0 {
		p.Trees = make([]*graph.Tree, len(treeEnds))
		start := 0
		for q, end := range treeEnds {
			t, err := graph.NewTree(p.NumVertices, edges[start:end])
			if err != nil {
				d.Decline()
				return nil
			}
			p.Trees[q], start = t, end
		}
	}
	if p.Validate() != nil {
		d.Decline()
		return nil
	}
	return &p
}

// Fewest bytes, separator included, of an array member the parse
// accepts: the bounds wire.Decoder.Count applies to its hints.
const (
	minEdgeBytes   = len(`[0,1],`)
	minDemandBytes = len(`{"id":0},`)
	minRowBytes    = len(`[],`)
	minNumberBytes = len(`0,`)
)

// decodeTreeEdges reads tree_edges into one flat edge list and the end
// offset of each tree's edges in it.
func decodeTreeEdges(d *wire.Decoder) (edges [][2]int, ends []int) {
	if !d.Open('[') {
		return nil, nil
	}
	for more := true; more; more = d.More(']') {
		edges = slices.Grow(edges, d.Count(minEdgeBytes))
		if d.Open('[') {
			for more := true; more; more = d.More(']') {
				var e [2]int
				if !d.Open('[') {
					d.Decline() // an empty pair, or not an array
				}
				e[0] = d.Int()
				if !d.More(']') {
					d.Decline() // a single element
				}
				e[1] = d.Int()
				if d.More(']') {
					d.Decline() // a third element
				}
				edges = append(edges, e)
			}
		}
		ends = append(ends, len(edges))
	}
	return edges, ends
}

// decodeDemands reads the demands array into a slice allocated once, at
// its final length, and each access list likewise.
func decodeDemands(d *wire.Decoder) []Demand {
	n := d.Count(minDemandBytes)
	if !d.Open('[') {
		if d.Declined() {
			return nil
		}
		return []Demand{}
	}
	out := make([]Demand, 0, n)
	for more := true; more; more = d.More(']') {
		out = append(out, Demand{})
		DecodeDemandWire(d, &out[len(out)-1])
	}
	return out
}

// DecodeDemandWire parses one demand object in wire form at d's position
// into dm, which the caller zeroes, with its access list allocated once at
// its final length. The fast subset is DecodeWire's: exact member names,
// each at most once, integer literals for int fields, no nulls; an empty
// object declines too. On anything else d is declined and the caller
// decodes the whole input through encoding/json. dm shares no memory
// with d's input.
func DecodeDemandWire(d *wire.Decoder, dm *Demand) {
	if !d.Open('{') {
		d.Decline() // {} or not an object
		return
	}
	var seen uint
	for more := true; more; more = d.More('}') {
		var bit uint
		switch string(d.Key()) {
		case "id":
			bit = 1 << 0
			dm.ID = d.Int()
		case "u":
			bit = 1 << 1
			dm.U = d.Int()
		case "v":
			bit = 1 << 2
			dm.V = d.Int()
		case "release":
			bit = 1 << 3
			dm.Release = d.Int()
		case "deadline":
			bit = 1 << 4
			dm.Deadline = d.Int()
		case "proctime":
			bit = 1 << 5
			dm.ProcTime = d.Int()
		case "profit":
			bit = 1 << 6
			dm.Profit = d.Float64()
		case "height":
			bit = 1 << 7
			dm.Height = d.Float64()
		case "access":
			bit = 1 << 8
			dm.Access = make([]int, 0, d.Count(minNumberBytes))
			if d.Open('[') {
				for more := true; more; more = d.More(']') {
					dm.Access = append(dm.Access, d.Int())
				}
			}
		default:
			d.Decline()
		}
		if seen&bit != 0 {
			d.Decline()
		}
		seen |= bit
	}
}

// decodeCapacities reads the capacity rows, each allocated at its final
// length.
func decodeCapacities(d *wire.Decoder) [][]float64 {
	n := d.Count(minRowBytes)
	if !d.Open('[') {
		if d.Declined() {
			return nil
		}
		return [][]float64{}
	}
	rows := make([][]float64, 0, n)
	for more := true; more; more = d.More(']') {
		row := make([]float64, 0, d.Count(minNumberBytes))
		if d.Open('[') {
			for more := true; more; more = d.More(']') {
				row = append(row, d.Float64())
			}
		}
		rows = append(rows, row)
	}
	return rows
}
