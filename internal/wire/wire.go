// Package wire is the byte-level JSON lexer and writer behind the
// single-pass codec of the /solve wire form (instance.DecodeWire,
// instance.(*Problem).EncodeWire and the service's request decoder).
//
// The Decoder accepts a strict subset of JSON: the bytes encoding/json
// itself emits for the repo's wire types. Strings carry no escapes or
// control bytes and are valid UTF-8; numbers follow the JSON grammar,
// and integer reads take only integer literals in range. Anything else
// is a decline, never an error: the caller hands the whole input to
// encoding/json, which stays the one source of decode errors and of the
// lenient cases (escapes, case-folded keys, null, duplicate keys).
//
// The Writer appends the tokens the encoder needs and formats floats
// exactly as encoding/json does, so encoded bytes match json.Marshal's.
package wire

import (
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Decoder reads one JSON document held in memory. Every read skips
// leading whitespace and consumes one token. A read that meets bytes
// outside the subset marks the decoder declined and returns a zero
// value; later reads then do nothing, so a caller checks Declined (or
// End) once, after its loops.
type Decoder struct {
	data     []byte
	pos      int
	declined bool
}

// NewDecoder returns a Decoder positioned at the start of data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Decline marks the input as outside the fast subset: callers use it
// for semantic declines such as an unknown or repeated key.
func (d *Decoder) Decline() { d.declined = true }

// Declined reports whether any read has declined.
func (d *Decoder) Declined() bool { return d.declined }

// End reports whether the document was read without a decline and
// nothing but whitespace follows the last token.
func (d *Decoder) End() bool {
	d.peek()
	return !d.declined && d.pos == len(d.data)
}

// peek skips whitespace and returns the next byte without consuming it
// (0 at the end of input or after a decline).
func (d *Decoder) peek() byte {
	if d.declined {
		return 0
	}
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// Open consumes the opening delimiter open ('{' or '[') and reports
// whether a first member follows. An empty container is consumed whole
// and reports false; so does a decline.
func (d *Decoder) Open(open byte) bool {
	if d.peek() != open {
		d.declined = true
		return false
	}
	d.pos++
	if d.peek() == open+2 { // '}' and ']' sit two code points after '{' and '['
		d.pos++
		return false
	}
	return !d.declined
}

// More consumes the byte after a container member: ',' reports that
// another member follows, the closing delimiter end reports false.
func (d *Decoder) More(end byte) bool {
	switch d.peek() {
	case ',':
		d.pos++
		return true
	case end:
		d.pos++
		return false
	}
	d.declined = true
	return false
}

// Key reads an object member's name and the ':' after it. The returned
// bytes alias the input.
func (d *Decoder) Key() []byte {
	k := d.Str()
	if d.peek() != ':' {
		d.declined = true
		return nil
	}
	d.pos++
	return k
}

// Str reads a string. The returned bytes alias the input: copy them
// before the input's buffer is reused.
func (d *Decoder) Str() []byte {
	if d.peek() != '"' {
		d.declined = true
		return nil
	}
	start := d.pos + 1
	ascii := true
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[start:i]
			if !ascii && !utf8.Valid(s) {
				d.declined = true // encoding/json would substitute U+FFFD
				return nil
			}
			d.pos = i + 1
			return s
		case c == '\\' || c < 0x20:
			d.declined = true
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.declined = true
	return nil
}

// Bool reads true or false.
func (d *Decoder) Bool() bool {
	switch d.peek() {
	case 't':
		if d.literal("true") {
			return true
		}
	case 'f':
		if d.literal("false") {
			return false
		}
	}
	d.declined = true
	return false
}

func (d *Decoder) literal(word string) bool {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return false
	}
	d.pos += len(word)
	return true
}

// number scans one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// it is an integer literal (no fraction, no exponent).
func (d *Decoder) number() (lit []byte, integer bool) {
	if d.peek(); d.declined {
		return nil, false
	}
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		d.declined = true
		return nil, false
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		integer = false
		if j := digits(data, i+1); j > i+1 {
			i = j
		} else {
			d.declined = true
			return nil, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integer = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if j := digits(data, i); j > i {
			i = j
		} else {
			d.declined = true
			return nil, false
		}
	}
	lit, d.pos = data[d.pos:i], i
	return lit, integer
}

func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// Int64 reads an integer literal in int64 range; a fraction, an
// exponent or an out-of-range value declines, as encoding/json rejects
// each of them for an integer field.
func (d *Decoder) Int64() int64 {
	lit, integer := d.number()
	if !integer {
		d.declined = true
		return 0
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 19 { // every int64 has at most 19 digits
		d.declined = true
		return 0
	}
	var u uint64
	for _, c := range lit {
		u = u*10 + uint64(c-'0') // 19 digits cannot overflow a uint64
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u)
	case !neg && u < 1<<63:
		return int64(u)
	}
	d.declined = true
	return 0
}

// Int reads an integer literal in int range.
func (d *Decoder) Int() int {
	v := d.Int64()
	if int64(int(v)) != v {
		d.declined = true
		return 0
	}
	return int(v)
}

// Uint64 reads a non-negative integer literal in uint64 range.
func (d *Decoder) Uint64() uint64 {
	lit, integer := d.number()
	if !integer || lit[0] == '-' {
		d.declined = true
		return 0
	}
	var u uint64
	for _, c := range lit {
		digit := uint64(c - '0')
		if u > (math.MaxUint64-digit)/10 {
			d.declined = true
			return 0
		}
		u = u*10 + digit
	}
	return u
}

// Float64 reads a number into the float64 strconv.ParseFloat gives it,
// the function encoding/json itself uses; a literal outside float64's
// range declines.
func (d *Decoder) Float64() float64 {
	lit, _ := d.number()
	if d.declined {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.declined = true
		return 0
	}
	return f
}

// Count returns the number of members of the array that starts at the
// next token, without consuming anything: a capacity hint for the
// parse that follows. It never exceeds the array's length in bytes
// divided by minBytes, the fewest bytes (separator included) a member
// the parse accepts can take, so a hostile array of tiny members
// cannot make the caller preallocate more than that share of the
// input. Strings are skipped to their next quote, so on input outside
// the subset the count can be wrong; the parse declines then.
func (d *Decoder) Count(minBytes int) int {
	if d.peek() != '[' {
		return 0
	}
	data, start := d.data, d.pos
	n, depth, empty := 0, 0, true
	i := start + 1
	for ; i < len(data); i++ {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			continue
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				if empty {
					return 0
				}
				return min(n+1, (i-start)/minBytes)
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
		empty = false
	}
	return min(n+1, (i-start)/minBytes)
}

// Writer accumulates JSON bytes in a buffer. Built with a destination
// io.Writer, it hands the buffer over whenever the next token might not
// fit, so a small fixed buffer streams output of any size; built with
// nil, the buffer grows and Bytes returns the whole output.
type Writer struct {
	buf []byte
	dst io.Writer
	err error
}

// NewWriter returns a Writer appending to buf[:0] and flushing to dst
// (nil: never flush).
func NewWriter(buf []byte, dst io.Writer) *Writer {
	return &Writer{buf: buf[:0], dst: dst}
}

// maxNumber bounds the bytes of one formatted number: 20 for an int64,
// at most 25 for a float64 in the format Float writes.
const maxNumber = 32

func (w *Writer) reserve(n int) {
	if w.dst != nil && cap(w.buf)-len(w.buf) < n {
		w.Flush() // nolint:errcheck — a failed write is kept in w.err and returned by the final Flush
	}
}

// Raw appends s verbatim: delimiters, and member names with their
// quotes and colon.
func (w *Writer) Raw(s string) {
	w.reserve(len(s))
	w.buf = append(w.buf, s...)
}

// Byte appends one delimiter byte.
func (w *Writer) Byte(c byte) {
	w.reserve(1)
	w.buf = append(w.buf, c)
}

// Int appends v in decimal.
func (w *Writer) Int(v int) {
	w.reserve(maxNumber)
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
}

// Float appends f exactly as encoding/json encodes a float64: the
// shortest representation that round-trips, in 'f' form except below
// 1e-6 or from 1e21 on, where it uses 'e' form with "e-09" cleaned to
// "e-9". It reports false, appending nothing, for NaN and ±Inf, which
// JSON cannot represent.
func (w *Writer) Float(f float64) bool {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return false
	}
	w.reserve(maxNumber)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	w.buf = b
	return true
}

// Flush hands the buffered bytes to the destination and returns the
// first write error seen. Without a destination it does nothing.
func (w *Writer) Flush() error {
	if w.dst == nil {
		return nil
	}
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.dst.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// Bytes returns the bytes written since the last flush: the whole
// output for a Writer without a destination.
func (w *Writer) Bytes() []byte { return w.buf }
