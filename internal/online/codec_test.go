package online

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
)

// eventLines are event lines as an encoding/json client writes them: the
// batch lines of perfbench's session-churn workload (removes, adds of
// unit tree demands, a resolve), plus adds of non-unit tree demands and
// of windowed line demands, with negative and large job ids.
func eventLines(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	var demands []instance.Demand
	for _, p := range []*instance.Problem{
		gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 3, Demands: 8, Shape: gen.ShapeRandom, Unit: true, AccessProb: 0.5}, rng),
		gen.TreeProblem(gen.TreeConfig{N: 32, Trees: 2, Demands: 4, HMin: 0.1, HMax: 1, Capacity: 1.6, CapJitter: 0.5}, rng),
		gen.LineProblem(gen.LineConfig{Slots: 48, Resources: 3, Demands: 4, MaxProc: 6, Slack: 6}, rng),
	} {
		demands = append(demands, p.Demands...)
	}
	events := []Event{{Op: OpRemove, ID: 17}, {Op: OpRemove}, {Op: OpRemove, ID: -3}}
	for i, d := range demands {
		events = append(events, Event{Op: OpAdd, Job: &Job{ID: int64(i) << (3 * (i % 20)), Demand: d}})
	}
	events = append(events, Event{Op: OpResolve})
	var out [][]byte
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, line)
	}
	return out
}

// sameEvent reports whether got is what want is, floats bit for bit
// (reflect.DeepEqual takes -0 for 0).
func sameEvent(got, want Event) bool {
	if !reflect.DeepEqual(got, want) {
		return false
	}
	if got.Job == nil {
		return true
	}
	g, w := got.Job.Demand, want.Job.Demand
	return math.Float64bits(g.Profit) == math.Float64bits(w.Profit) &&
		math.Float64bits(g.Height) == math.Float64bits(w.Height)
}

// FuzzDecodeEvent: for any bytes, DecodeEvent returns what json.Unmarshal
// into an Event returns, a deeply equal event (floats bit for bit) or the
// identical error string.
func FuzzDecodeEvent(f *testing.F) {
	for _, line := range eventLines(f) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, _, gotErr := DecodeEvent(line)
		var want Event
		wantErr := json.Unmarshal(line, &want)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, reference %v", gotErr, wantErr)
			}
			return
		}
		if !sameEvent(got, want) {
			t.Fatalf("decoded %+v, reference %+v", got, want)
		}
	})
}

// TestDecodeEventFastPath: every line an encoding/json client writes takes
// the single pass; the lenient and malformed lines fall back and give
// encoding/json's value or error.
func TestDecodeEventFastPath(t *testing.T) {
	lines := eventLines(t)
	for _, line := range lines {
		got, fallback, err := DecodeEvent(line)
		if err != nil || fallback {
			t.Fatalf("%s: fallback %v, error %v", line, fallback, err)
		}
		var want Event
		if err := json.Unmarshal(line, &want); err != nil || !sameEvent(got, want) {
			t.Fatalf("%s: decoded %+v, reference %+v (%v)", line, got, want, err)
		}
	}
	add := string(lines[3])
	for _, line := range []string{
		`{"op":"resolve"} x`,
		`{"op":"add","job":null}`,
		`{"op":"add","job":{}}`,
		`{"Op":"resolve"}`,
		`{"op":"remove","id":1,"id":2}`,
		`{"op":"re\u006dove","id":1}`,
		`{"op":"remove","id":1e0}`,
		`{"op":"remove","id":9223372036854775808}`,
		`{"op":"remove","id":1,"note":"unknown members are ignored"}`,
		"",
		" \t",
		add[:len(add)-1],
	} {
		got, fallback, gotErr := DecodeEvent([]byte(line))
		var want Event
		wantErr := json.Unmarshal([]byte(line), &want)
		if !fallback {
			t.Errorf("%q: took the fast path", line)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (wantErr == nil && !sameEvent(got, want)) {
			t.Errorf("%q: decoded %+v (%v), reference %+v (%v)", line, got, gotErr, want, wantErr)
		}
	}
	if ev, fallback, err := DecodeEvent([]byte(`{}`)); fallback || err != nil || !reflect.DeepEqual(ev, Event{}) {
		t.Errorf("{}: %+v, fallback %v, error %v", ev, fallback, err)
	}
}
