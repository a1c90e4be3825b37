package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestNumbersMatchEncodingJSON: each literal either decodes to exactly
// the value encoding/json gives it (bit for bit, so -0 stays negative)
// or declines where encoding/json rejects it or would need its lenient
// path.
func TestNumbersMatchEncodingJSON(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "7", "-7", "0.5", "-0.25", "1e2", "1E+2", "2.5e-3",
		"123456789012345", "1234567890123456", "-999999999999999", "9007199254740993",
		"5e-324", "1e-7", "0.000001", "100000000000000000000", "1e+21",
		"1.7976931348623157e+308", "1e400", "-1e400",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616",
		"01", "-", "1.", ".5", "1e", "+1", "--1", "1.e5", "0x10", "Infinity", "NaN", "",
	} {
		t.Run(lit, func(t *testing.T) {
			var wantF float64
			fErr := json.Unmarshal([]byte(lit), &wantF)
			d := NewDecoder([]byte(lit))
			gotF := d.Float64()
			if ok := d.End(); ok != (fErr == nil) || ok && math.Float64bits(gotF) != math.Float64bits(wantF) {
				t.Errorf("Float64: got %v ok=%v, encoding/json %v err=%v", gotF, ok, wantF, fErr)
			}

			var wantI int64
			iErr := json.Unmarshal([]byte(lit), &wantI)
			d = NewDecoder([]byte(lit))
			gotI := d.Int64()
			if ok := d.End(); ok != (iErr == nil) || gotI != wantI {
				t.Errorf("Int64: got %d ok=%v, encoding/json %d err=%v", gotI, ok, wantI, iErr)
			}

			var wantU uint64
			uErr := json.Unmarshal([]byte(lit), &wantU)
			d = NewDecoder([]byte(lit))
			gotU := d.Uint64()
			if ok := d.End(); ok != (uErr == nil) || gotU != wantU {
				t.Errorf("Uint64: got %d ok=%v, encoding/json %d err=%v", gotU, ok, wantU, uErr)
			}
		})
	}
}

// TestStringsDeclineOutsideSubset: escapes, control bytes and invalid
// UTF-8 decline (encoding/json unescapes or substitutes them); plain
// ASCII and valid multi-byte UTF-8 pass through unchanged.
func TestStringsDeclineOutsideSubset(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`"tree-unit"`, true},
		{`""`, true},
		{`"ſeed ✓"`, true},
		{`"a\"b"`, false},
		{`"a\u0041"`, false},
		{"\"a\tb\"", false},
		{"\"\xff\"", false},
		{`"unterminated`, false},
		{`tree`, false},
	} {
		d := NewDecoder([]byte(c.in))
		got := d.Str()
		if ok := d.End(); ok != c.ok {
			t.Errorf("%q: ok=%v, want %v", c.in, ok, c.ok)
		} else if ok && `"`+string(got)+`"` != c.in {
			t.Errorf("%q: read %q", c.in, got)
		}
	}
}

// TestContainers walks objects and arrays with the Open/More protocol
// and checks that structural damage declines.
func TestContainers(t *testing.T) {
	read := func(in string) ([]string, []int, bool) {
		d := NewDecoder([]byte(in))
		var keys []string
		var vals []int
		for more := d.Open('{'); more; more = d.More('}') {
			keys = append(keys, string(d.Key()))
			for more := d.Open('['); more; more = d.More(']') {
				vals = append(vals, d.Int())
			}
		}
		return keys, vals, d.End()
	}
	keys, vals, ok := read(" { \"a\" : [1, 2] ,\n\"b\":[] ,\"c\":[3]} \r\n")
	if !ok || len(keys) != 3 || len(vals) != 3 || vals[2] != 3 {
		t.Fatalf("got keys %v vals %v ok=%v", keys, vals, ok)
	}
	if _, _, ok := read("{}"); !ok {
		t.Error("empty object declined")
	}
	for _, bad := range []string{`{"a":[1,]}`, `{"a":[1]`, `{"a" [1]}`, `{"a":[1]}x`, `{"a":[1]}{}`, `{"a":[1],}`, `[`, ``} {
		if _, _, ok := read(bad); ok {
			t.Errorf("%q accepted", bad)
		}
	}
	d := NewDecoder([]byte("true false"))
	if !d.Bool() || d.Bool() || !d.End() {
		t.Error("booleans misread")
	}
	if d := NewDecoder([]byte("tru")); d.Bool() || d.End() {
		t.Error("truncated literal accepted")
	}
}

// TestCount: the member count of the next array, capped by bytes.
func TestCount(t *testing.T) {
	for _, c := range []struct {
		in       string
		minBytes int
		want     int
	}{
		{`[]`, 1, 0},
		{` [ ] `, 1, 0},
		{`[1]`, 1, 1},
		{`[{"a":[1,2]},{"b":"x,y]"}, 3]`, 1, 3},
		{`[[0,1],[1,2]]`, 6, 2},
		{`[1,1,1,1,1,1]`, 4, 3}, // tiny members: capped by the bytes
		{`{"a":1}`, 1, 0},
	} {
		if got := NewDecoder([]byte(c.in)).Count(c.minBytes); got != c.want {
			t.Errorf("Count(%q, %d) = %d, want %d", c.in, c.minBytes, got, c.want)
		}
	}
}

// TestFloatMatchesEncodingJSON: Writer.Float writes what json.Marshal
// writes for a float64, across both format cutoffs.
func TestFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 5e-324, 1e-7, 9.99e-7, 1e-6,
		123456.789, 1e20, 1e21, 1.5e300, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(nil, nil)
		if !w.Float(f) || !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%v: wrote %s, json.Marshal %s", f, w.Bytes(), want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if w := NewWriter(nil, nil); w.Float(f) || len(w.Bytes()) != 0 {
			t.Errorf("%v: accepted", f)
		}
	}
}

// TestWriterStreams: a Writer with a destination hands over its small
// buffer as it fills, and the concatenation is the unbuffered output.
func TestWriterStreams(t *testing.T) {
	var whole, streamed bytes.Buffer
	all := NewWriter(nil, nil)
	small := NewWriter(make([]byte, 0, 40), &streamed)
	for i := 0; i < 500; i++ {
		for _, w := range []*Writer{all, small} {
			w.Raw(`,"k":`)
			w.Int(i * 7919)
			w.Byte(',')
			w.Float(float64(i) / 7)
		}
	}
	whole.Write(all.Bytes())
	if err := small.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), streamed.Bytes()) {
		t.Fatal("streamed output differs from the buffered output")
	}
	if cap(small.Bytes()) != 40 {
		t.Errorf("streaming buffer grew to %d", cap(small.Bytes()))
	}
}
