package instance_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/graph"
	"treesched/internal/instance"
	"treesched/internal/scenario"
	"treesched/internal/wire"
)

// codecProblems is the encoder/decoder equivalence corpus: every
// scenario preset at three seeds and the gen tree (every shape), line
// and capacitated families.
func codecProblems(t *testing.T) map[string]*instance.Problem {
	t.Helper()
	out := map[string]*instance.Problem{}
	for _, s := range scenario.All() {
		var params scenario.Params
		if s.Scale {
			params = scenario.Params{Demands: 40, Size: 64, Networks: 8}
		}
		for seed := int64(1); seed <= 3; seed++ {
			p, err := s.Generate(s.Effective(params), seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			out[fmt.Sprintf("%s/%d", s.Name, seed)] = p
		}
	}
	rng := rand.New(rand.NewSource(5))
	for shape := gen.ShapeRandom; shape <= gen.ShapeSpider; shape++ {
		out["gen-tree/"+shape.String()] = gen.TreeProblem(gen.TreeConfig{N: 24, Trees: 3, Demands: 30, Shape: shape}, rng)
	}
	out["gen-tree/unit"] = gen.TreeProblem(gen.TreeConfig{N: 48, Trees: 3, Demands: 200, Unit: true}, rng)
	out["gen-tree/capacitated"] = gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 4, Demands: 160, Capacity: 1.6, CapJitter: 0.5, AccessProb: 0.6}, rng)
	out["gen-line"] = gen.LineProblem(gen.LineConfig{Slots: 48, Resources: 3, Demands: 200, Unit: true, MaxProc: 6, Slack: 6}, rng)
	out["gen-line/capacitated"] = gen.LineProblem(gen.LineConfig{Slots: 40, Resources: 2, Demands: 60, Capacity: 2, CapJitter: 1}, rng)
	out["gen-line/access-count"] = gen.LineProblem(gen.LineConfig{Slots: 30, Resources: 9, Demands: 50, AccessCount: 5}, rng)
	return out
}

// TestEncodeWireMatchesReflection: EncodeWire, through MarshalJSON and
// json.Marshal, writes exactly the bytes of the encoding/json oracle,
// on the corpus, on floats at both format cutoffs, and on nil versus
// empty slices.
func TestEncodeWireMatchesReflection(t *testing.T) {
	cases := codecProblems(t)

	floats := []float64{math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1e20, 1e21, math.MaxFloat64, 0.1}
	path, err := graph.NewTree(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range floats {
		cases[fmt.Sprintf("float/%g", f)] = &instance.Problem{
			Kind: instance.KindTree, NumVertices: 3, Trees: []*graph.Tree{path},
			Capacities: [][]float64{{f, f, -f}},
			Demands:    []instance.Demand{{ID: i, U: -i, V: 2, Profit: f, Height: -f, Access: []int{0}}},
		}
	}
	line := func(mut func(p *instance.Problem)) *instance.Problem {
		p := &instance.Problem{Kind: instance.KindLine, NumSlots: 2, NumResources: 1,
			Demands: []instance.Demand{{ID: 0, Deadline: 1, ProcTime: 1, Profit: 1, Height: 1, Access: []int{0}}}}
		mut(p)
		return p
	}
	cases["nil/demands"] = line(func(p *instance.Problem) { p.Demands = nil })
	cases["empty/demands"] = line(func(p *instance.Problem) { p.Demands = []instance.Demand{} })
	cases["nil/access"] = line(func(p *instance.Problem) { p.Demands[0].Access = nil })
	cases["empty/access"] = line(func(p *instance.Problem) { p.Demands[0].Access = []int{} })
	cases["empty/capacities"] = line(func(p *instance.Problem) { p.Capacities = [][]float64{} })
	cases["nil/capacity-row"] = line(func(p *instance.Problem) { p.Capacities = [][]float64{nil} })
	cases["empty/capacity-row"] = line(func(p *instance.Problem) { p.Capacities = [][]float64{{}} })
	cases["empty/trees"] = line(func(p *instance.Problem) { p.Trees = []*graph.Tree{} })
	single, err := graph.NewTree(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases["single-vertex-tree"] = &instance.Problem{Kind: instance.KindTree, NumVertices: 1, Trees: []*graph.Tree{single}}

	for name, p := range cases {
		want, err := instance.ReflectMarshal(p)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder differs from encoding/json:\n got  %.300s\n want %.300s", name, got, want)
		}
	}

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := line(func(p *instance.Problem) { p.Demands[0].Profit = f })
		_, want := instance.ReflectMarshal(p)
		_, got := p.MarshalJSON()
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%v: error %v, encoding/json %v", f, got, want)
		}
	}
}

// TestDecodeWireMatchesReflection: on the corpus, DecodeWire reads the
// bytes back to a value deeply equal to the encoding/json reference,
// trees included, and consumes them whole.
func TestDecodeWireMatchesReflection(t *testing.T) {
	for name, p := range codecProblems(t) {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var want instance.Problem
		if err := want.UnmarshalReflect(data); err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		d := wire.NewDecoder(data)
		got := instance.DecodeWire(d)
		if got == nil || !d.End() {
			t.Errorf("%s: the fast path declined encoding/json's own bytes", name)
			continue
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: fast decode differs from the reference", name)
		}
	}
}

// TestDecodeDemandsPresize: the demands slice and each access list are
// allocated once, at their final length, and a malformed tail that the
// parse declines on cannot inflate either allocation.
func TestDecodeDemandsPresize(t *testing.T) {
	ok := `[{"id":0,"profit":1,"height":1,"access":[0]},{"id":1,"profit":1,"height":1,"access":[0,1,2]}]`
	d := wire.NewDecoder([]byte(ok))
	got := instance.DecodeDemands(d)
	if !d.End() || len(got) != 2 || cap(got) != 2 || cap(got[0].Access) != 1 || cap(got[1].Access) != 3 {
		t.Fatalf("%s: declined=%v, %d demands in cap %d", ok, d.Declined(), len(got), cap(got))
	}

	tail := strings.Repeat("{", 1<<20)
	for _, in := range []string{
		`[{"id":0}` + tail,
		`[{"id":0,"access":[0` + strings.Repeat("[", 1<<20),
	} {
		d := wire.NewDecoder([]byte(in))
		got := instance.DecodeDemands(d)
		if !d.Declined() {
			t.Fatalf("%.30s…: not declined", in)
		}
		access := 0
		if len(got) > 0 {
			access = cap(got[0].Access)
		}
		if cap(got) > 1 || access > 1 {
			t.Errorf("%.30s… (%d bytes): preallocated %d demands and %d access entries", in, len(in), cap(got), access)
		}
	}
}

// TestUnmarshalDeclinesToReference: input outside the fast subset
// declines, and UnmarshalJSON then gives exactly the reference's value
// or error.
func TestUnmarshalDeclinesToReference(t *testing.T) {
	const ok = `{"kind":"line","num_slots":4,"num_resources":1,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":2.5,"height":1,"access":[0]}]}`
	for _, in := range []string{
		`{"KIND":"line","num_slots":4,"num_resources":1,"demands":[]}`,                               // case-folded key
		`{"kind":"line","kind":"line","num_slots":4,"num_resources":1,"demands":[]}`,                 // duplicate key
		`{"kind":"line","num_slots":4,"num_resources":1,"demands":null}`,                             // null
		`{"kind":"line","num_slots":4.0,"num_resources":1,"demands":[]}`,                             // float into int
		`{"kind":"line","num_slots":4,"num_resources":1,"demands":[],"extra":1}`,                     // unknown key
		`{"\u006bind":"line","num_slots":4,"num_resources":1,"demands":[]}`,                          // escape
		`{"kind":"tree","num_vertices":2,"tree_edges":[[[1,0,5]]],"demands":[]}`,                     // 3-element edge
		`{"kind":"tree","num_vertices":3,"tree_edges":[[[1,0],[1,0]]],"demands":[]}`,                 // NewTree rejects
		`{"kind":"line","num_slots":4,"num_resources":1,"demands":[{"id":1,"profit":1,"height":1}]}`, // Validate rejects
		`{"kind":"cycle","demands":[]}`,                                                              // unknown kind
		`[1,2,3]`,
		ok + ` `,
	} {
		d := wire.NewDecoder([]byte(in))
		declined := instance.DecodeWire(d) == nil || !d.End()
		if declined == (in == ok+` `) {
			t.Errorf("%s: declined=%v", in, declined)
		}
		var got, want instance.Problem
		gotErr, wantErr := got.UnmarshalJSON([]byte(in)), want.UnmarshalReflect([]byte(in))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, reference %v", in, gotErr, wantErr)
		} else if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: value differs from the reference", in)
		}
	}
}
