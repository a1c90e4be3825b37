package service

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"treesched/internal/instance"
	"treesched/internal/wire"
)

// decodeRequest decodes one /solve body or /batch line. A body inside
// the fast subset, which is what encoding/json emits for an
// inline-problem Request (members algo, problem, epsilon, seed,
// fixed_rounds and max_nodes), is parsed in one pass by wire and
// instance.DecodeWire. Anything else, scenario requests included, falls
// back to json.Unmarshal, which also supplies every error message;
// fallback reports that it did. The result shares no memory with body.
func decodeRequest(body []byte) (req Request, fallback bool, err error) {
	if decodeFast(body, &req) {
		return req, false, nil
	}
	req = Request{}
	return req, true, json.Unmarshal(body, &req)
}

// decodeFast is decodeRequest's single pass; false means decline.
func decodeFast(body []byte, req *Request) bool {
	d := wire.NewDecoder(body)
	if d.Open('{') {
		var seen uint
		for more := true; more; more = d.More('}') {
			var bit uint
			switch string(d.Key()) {
			case "algo":
				bit = 1 << 0
				req.Algo = string(d.Str())
			case "problem":
				bit = 1 << 1
				req.Problem = instance.DecodeWire(d)
			case "epsilon":
				bit = 1 << 2
				req.Epsilon = d.Float64()
			case "seed":
				bit = 1 << 3
				req.Seed = d.Uint64()
			case "fixed_rounds":
				bit = 1 << 4
				req.FixedRounds = d.Bool()
			case "max_nodes":
				bit = 1 << 5
				req.MaxNodes = d.Int64()
			default:
				d.Decline()
			}
			if seen&bit != 0 {
				d.Decline()
			}
			seen |= bit
		}
	}
	return d.End()
}

// decode is decodeRequest plus the fallback count an operator reads to
// see what share of traffic misses the fast path.
func (e *Engine) decode(body []byte) (Request, error) {
	req, fallback, err := decodeRequest(body)
	if fallback {
		e.met.decodeFallbacks.Inc()
	}
	return req, err
}

// maxPooledBody caps the buffers bodyPool keeps: a larger one, grown by
// a rare large request, is left to the collector, so it cannot pin its
// memory for the life of the process.
const maxPooledBody = 1 << 20

// bodyPool recycles the body buffers of /solve and of session event
// batches.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// putBody returns a bodyPool buffer, unless a large body grew it past
// maxPooledBody.
func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// readRequest reads r's body, capped at maxRequestBytes, into the pooled
// buffer *bp, and keeps the buffer it grew there for putBody.
func readRequest(w http.ResponseWriter, r *http.Request, bp *[]byte) ([]byte, error) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength, *bp)
	*bp = body
	return body, err
}

// maxPresize caps what an announced Content-Length may allocate before
// any body byte has arrived. A client can announce up to
// maxRequestBytes and then go idle, so past this size the buffer grows
// only as bytes actually arrive.
const maxPresize = 64 << 10

// readBody reads r to EOF into buf[:0]. A known size (the request's
// Content-Length; -1 when unknown) sizes the buffer up front, up to
// maxPresize, so a body within it costs at most one allocation and
// none once its buffer is pooled.
func readBody(r io.Reader, size int64, buf []byte) ([]byte, error) {
	buf = buf[:0]
	// The spare byte lets the read that meets EOF find room.
	if want := min(size, maxPresize) + 1; size > 0 && want > int64(cap(buf)) {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
