package instance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"treesched/internal/graph"
)

// capTreeProblem builds a two-tree problem with distinct non-uniform
// per-edge capacities on every edge of every network.
func capTreeProblem(t *testing.T) *Problem {
	t.Helper()
	t1, err := graph.NewTree(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := graph.NewTree(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		Kind:        KindTree,
		NumVertices: 5,
		Trees:       []*graph.Tree{t1, t2},
		Capacities: [][]float64{
			// Entry 0 is the root's nonexistent parent edge (ignored).
			{0, 1.25, 0.75, 2.5, 1.0},
			{0, 0.5, 3.125, 1.5, 2.0},
		},
		Demands: []Demand{
			{ID: 0, U: 0, V: 4, Profit: 3, Height: 0.5, Access: []int{0, 1}},
			{ID: 1, U: 2, V: 3, Profit: 2, Height: 0.25, Access: []int{1}},
		},
	}
}

// capLineProblem builds a line problem with per-slot capacities.
func capLineProblem() *Problem {
	return &Problem{
		Kind:         KindLine,
		NumSlots:     6,
		NumResources: 2,
		Capacities: [][]float64{
			{1.5, 2.0, 0.875, 1.0, 3.0, 1.25},
			{0.625, 1.0, 2.25, 1.75, 0.5, 2.5},
		},
		Demands: []Demand{
			{ID: 0, Release: 0, Deadline: 3, ProcTime: 2, Profit: 5, Height: 0.4, Access: []int{0}},
			{ID: 1, Release: 2, Deadline: 5, ProcTime: 3, Profit: 4, Height: 0.3, Access: []int{0, 1}},
		},
	}
}

// TestJSONRoundTripNonUniformCapacities: the wire form must preserve
// every per-edge capacity exactly, and Capacity lookups must agree
// before and after a round trip.
func TestJSONRoundTripNonUniformCapacities(t *testing.T) {
	for _, p := range []*Problem{capTreeProblem(t), capLineProblem()} {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var q Problem
		if err := json.Unmarshal(data, &q); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Capacities, q.Capacities) {
			t.Fatalf("capacities changed:\n before %v\n after  %v", p.Capacities, q.Capacities)
		}
		for e := 0; e < p.EdgeSpace(); e++ {
			before, after := p.Capacity(int32(e)), q.Capacity(int32(e))
			if math.IsNaN(after) || before != after {
				t.Fatalf("edge %d capacity %g -> %g", e, before, after)
			}
		}
		// Demands and expansion must also survive (placements depend on
		// capacities only at solve time, not in the wire form).
		a, b := p.Expand(), q.Expand()
		if !reflect.DeepEqual(a, b) {
			t.Fatal("expansion changed across round trip")
		}
	}
}

// TestJSONRoundTripIdempotent: marshal(unmarshal(marshal(p))) must be
// byte-identical to marshal(p) — the canonical-hash property the
// serving layer's cache keys rely on.
func TestJSONRoundTripIdempotent(t *testing.T) {
	for _, p := range []*Problem{capTreeProblem(t), capLineProblem()} {
		first, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var q Problem
		if err := json.Unmarshal(first, &q); err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(&q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("wire form not canonical:\n first  %s\n second %s", first, second)
		}
	}
}

// TestJSONRejectsBadCapacities: capacity validation must run on decode.
func TestJSONRejectsBadCapacities(t *testing.T) {
	p := capLineProblem()
	p.Capacities[1][2] = -1
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Problem
	if err := json.Unmarshal(data, &q); err == nil {
		t.Fatal("accepted a negative capacity")
	}

	p = capLineProblem()
	p.Capacities = p.Capacities[:1] // row count != networks
	data, err = json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &q); err == nil {
		t.Fatal("accepted a capacity row count mismatch")
	}
}

// TestJSONRandomizedRoundTrip round-trips randomly capacitated problems
// and compares the full structure.
func TestJSONRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(6)
		p := &Problem{Kind: KindLine, NumSlots: n, NumResources: 1 + rng.Intn(3)}
		p.Capacities = make([][]float64, p.NumResources)
		for q := range p.Capacities {
			p.Capacities[q] = make([]float64, n)
			for e := range p.Capacities[q] {
				p.Capacities[q][e] = 0.25 + rng.Float64()*2
			}
		}
		for i := 0; i < 1+rng.Intn(5); i++ {
			rho := 1 + rng.Intn(n)
			rt := rng.Intn(n - rho + 1)
			p.Demands = append(p.Demands, Demand{
				ID: i, Release: rt, Deadline: rt + rho - 1 + rng.Intn(n-rt-rho+1), ProcTime: rho,
				Profit: 1 + rng.Float64()*9, Height: 0.1 + rng.Float64()*0.9,
				Access: []int{rng.Intn(p.NumResources)},
			})
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid problem: %v", trial, err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var q Problem
		if err := json.Unmarshal(data, &q); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(p.Capacities, q.Capacities) || !reflect.DeepEqual(p.Demands, q.Demands) {
			t.Fatalf("trial %d: round trip changed the problem", trial)
		}
	}
}

// TestCanonicalHashPinned pins the canonical hash: SHA-256 over the
// wire form of two fixed problems, digests computed when encoding/json
// still wrote that form. A changed digest would orphan every warm cache
// entry keyed on it.
func TestCanonicalHashPinned(t *testing.T) {
	for _, c := range []struct {
		p    *Problem
		want string
	}{
		{capTreeProblem(t), "f6757341d89b8af88e16fb14a191bc23bd2666ee895bb213659f09566c0ea9b9"},
		{capLineProblem(), "632daff18892b5a397612cb2436efdad03a2b3e730db3d08ff028a531363dd32"},
	} {
		data, err := json.Marshal(c.p)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s problem hashes to %s, pinned %s:\n%s", c.p.Kind, got, c.want, data)
		}
	}
}

// TestEncoderCoversEveryWireField is the guard against a field that
// the codec forgets: every exported field of the wire struct and of
// Demand is set non-zero by reflection, and EncodeWire must still write
// what json.Marshal writes for the wire struct. A field added to either
// type without codec support fails here instead of silently dropping
// out of the canonical hash, where two different problems would share
// one memo entry.
func TestEncoderCoversEveryWireField(t *testing.T) {
	var w problemJSON
	fillNonZero(t, reflect.ValueOf(&w).Elem(), "problemJSON")
	// Fields whose values must also be structurally valid to build a
	// Problem: a real kind and a canonical edge list (child, parent).
	w.Kind = "tree"
	w.NumVertices = 2
	w.TreeEdges = [][][2]int{{{1, 0}}}
	want, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var p Problem
	if err := w.build(&p); err != nil {
		t.Fatal(err)
	}
	got, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeWire misses a field:\n got  %s\n want %s", got, want)
	}
	// Problem's own field set is the wire struct's in other clothes; a
	// new Problem field needs a wire member (and codec support) first.
	var names []string
	for i := 0; i < reflect.TypeOf(Problem{}).NumField(); i++ {
		names = append(names, reflect.TypeOf(Problem{}).Field(i).Name)
	}
	if fmt.Sprint(names) != "[Kind Trees NumVertices NumSlots NumResources Demands Capacities]" {
		t.Errorf("Problem fields %v changed: extend problemJSON, EncodeWire and DecodeWire first", names)
	}
}

// fillNonZero sets every exported field reachable from v to a non-zero
// value, failing on a kind it does not know how to fill.
func fillNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fillNonZero(t, v.Field(i), path+"."+f.Name)
				if v.Field(i).IsZero() {
					t.Fatalf("%s.%s left zero", path, f.Name)
				}
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), path+"[0]")
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), path+"["+fmt.Sprint(i)+"]")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(3 + len(path)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(3 + len(path)))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5 + float64(len(path)))
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("%s: cannot fill a %s; teach fillNonZero and the codec", path, v.Kind())
	}
}
