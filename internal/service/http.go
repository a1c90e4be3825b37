package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"treesched/internal/obs"
	"treesched/internal/online"
	"treesched/internal/scenario"
)

// Handler returns the engine's HTTP API:
//
//	POST /solve      one Request JSON -> one Response JSON
//	POST /batch      NDJSON stream of Requests -> NDJSON stream of
//	                 Responses in input order (solved concurrently);
//	                 per-line failures become {"error": "..."} lines
//	GET  /scenarios  the preset library with docs and defaults
//	GET  /healthz    liveness
//	GET  /metrics    MetricsSnapshot JSON
//	GET  /metrics.prom  the same counters in the Prometheus text
//	                 exposition format (v0.0.4), plus latency summaries
//
// Dynamic sessions (internal/online):
//
//	POST   /session                 SessionRequest -> SessionInfo
//	POST   /session/{id}/events     NDJSON stream of events (add/remove/
//	                                resolve) applied in order -> SessionEventsResult
//	GET    /session/{id}/schedule   resolve staged events -> SessionSchedule
//	DELETE /session/{id}            close the session
//
// Flight-recorder introspection (see debug.go):
//
//	GET /debug/requests       active + retained completed requests
//	GET /debug/requests/{id}  one request's full record / span timeline
//	GET /debug/events         the structured event log
//
// Engine endpoints accept an X-Request-ID header (minting one when
// absent) and echo it on the response; the id keys the request's
// flight-recorder record, so a client can quote it to /debug/requests/{id}.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", e.instrumented("solve", e.handleSolve))
	mux.HandleFunc("POST /batch", e.instrumented("batch", e.handleBatch))
	mux.HandleFunc("GET /scenarios", e.handleScenarios)
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	mux.HandleFunc("GET /metrics", e.handleMetrics)
	mux.HandleFunc("GET /metrics.prom", e.handleMetricsProm)
	mux.HandleFunc("POST /session", e.instrumented("session_open", e.handleSessionOpen))
	mux.HandleFunc("POST /session/{id}/events", e.instrumented("session_events", e.handleSessionEvents))
	mux.HandleFunc("GET /session/{id}/schedule", e.instrumented("session_schedule", e.handleSessionSchedule))
	mux.HandleFunc("DELETE /session/{id}", e.instrumented("session_close", e.handleSessionClose))
	mux.HandleFunc("GET /debug/requests", e.handleDebugRequests)
	mux.HandleFunc("GET /debug/requests/{id}", e.handleDebugRequest)
	mux.HandleFunc("GET /debug/events", e.handleDebugEvents)
	return mux
}

// requestIDHeader is X-Request-ID in canonical form, the form
// http.Header stores and writes: a key already canonical is looked up
// and set without building the canonical copy.
const requestIDHeader = "X-Request-Id"

// instrumented wraps an engine endpoint: it accepts the client's
// X-Request-ID (minting a recorder id when absent), echoes the id on
// the response header, and deposits id + endpoint class in the request
// context for the engine to record under. With the recorder disabled
// and no client id, behavior is unchanged — no header, no context keys.
func (e *Engine) instrumented(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" && e.rec != nil {
			id = e.rec.NextID()
		}
		if id != "" {
			w.Header().Set(requestIDHeader, id)
		}
		h(w, r.WithContext(withEndpoint(WithRequestID(r.Context(), id), endpoint)))
	}
}

// maxRequestBytes bounds one /solve body or one /batch line.
const maxRequestBytes = 32 << 20

type errorBody struct {
	Error string `json:"error"`
}

// encodeJSON is the one encoder of the JSON endpoints' bodies: it
// appends v to buf with encoding/json, HTML escaping off, one document
// and a newline.
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// jsonBufs recycles writeJSON's buffers; one grown past maxPooledBody
// is left to the collector.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v before it writes the status, so a value encoding
// refuses (a non-finite float) becomes one 500 JSON error, never a
// status over an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	writeEncoded(w, status, buf, encodeJSON(buf, v))
	if buf.Cap() <= maxPooledBody {
		jsonBufs.Put(buf)
	}
}

// writeEncoded writes status and buf, which encodeJSON filled, or one
// 500 JSON error in its place when encodeJSON failed with err.
func writeEncoded(w http.ResponseWriter, status int, buf *bytes.Buffer, err error) {
	if err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		encodeJSON(buf, errorBody{Error: fmt.Sprintf("encode response: %v", err)}) // nolint:errcheck — a string always encodes
	}
	writeBody(w, status, buf.Bytes())
}

func writeBody(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data) // nolint:errcheck — the client is gone if this fails
}

func errStatus(err error) int {
	if errors.Is(err, ErrBadRequest) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// maxBodyEntryBytes caps the response bytes one body-cache entry keeps;
// a larger answer is served by the full path on every sight.
const maxBodyEntryBytes = 64 << 10

// bodyEntry is what the body cache keeps for a /solve body whose answer
// came from the result cache: that answer's result key, the algorithm
// the body names, and the response bytes written for it. A response is
// a function of its result key, so the bytes stay right for as long as
// the key stays in the result cache.
type bodyEntry struct {
	key  string
	algo string
	resp []byte
}

// handleSolve reads the body once, into a pooled buffer. A body the
// result cache has answered before is answered again from its entry in
// the body cache, keyed on the SHA-256 of its exact bytes. Any other
// body is decoded whole (bytes after the request object are an error,
// as they are on a /batch line) and solved; when the result cache
// answers it, the bytes written become its entry.
func (e *Engine) handleSolve(w http.ResponseWriter, r *http.Request) {
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	body, err := readRequest(w, r, bp)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	digest := sha256.Sum256(body)
	if data, ok, err := e.solveRepeat(r.Context(), &digest); ok {
		if err != nil {
			writeJSON(w, errStatus(err), errorBody{Error: err.Error()})
		} else {
			writeBody(w, http.StatusOK, data)
		}
		return
	}
	req, err := e.decode(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	resp, hitKey, err := e.solveMemo(r.Context(), &req)
	if err != nil {
		writeJSON(w, errStatus(err), errorBody{Error: err.Error()})
		return
	}
	if hitKey == "" {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// A result hit: encode once, into bytes the body cache keeps, and
	// write those.
	var buf bytes.Buffer
	err = encodeJSON(&buf, resp)
	if err == nil && buf.Len() <= maxBodyEntryBytes {
		e.bodies.add(string(digest[:]), bodyEntry{key: hitKey, algo: req.Algo, resp: buf.Bytes()})
	}
	writeEncoded(w, http.StatusOK, &buf, err)
}

// solveRepeat answers a body from its body-cache entry, once the result
// cache confirms the entry's key, and counts the request as the result
// hit it is. It reports false, having counted nothing, when the body has
// no entry or its answer has left the result cache; the full path then
// serves it.
func (e *Engine) solveRepeat(ctx context.Context, digest *[sha256.Size]byte) (data []byte, ok bool, err error) {
	ent, ok := e.bodies.get(string(digest[:]))
	if !ok {
		return nil, false, nil
	}
	if _, ok := e.results.get(ent.key); !ok {
		return nil, false, nil
	}
	err = e.account(ctx, e.sloSolve, "solve", func(rq *obs.Req) error {
		rq.SetPhase(obs.PhaseCacheCheck)
		e.noteAlgo(rq, ent.algo)
		e.noteResultHit(rq)
		e.met.bodyHits.Inc()
		return nil
	})
	return ent.resp, true, err
}

// handleBatch streams NDJSON: each input line is one Request, each
// output line the matching Response (or an error object) in input
// order. Lines run through orderedSolves — the same ordered-concurrent
// scheduler behind Engine.SolveBatch — whose bounded future queue
// applies back-pressure to the reader so an unbounded stream does not
// accumulate in memory.
func (e *Engine) handleBatch(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)

	// encodeLine encodes one output line, newline included, as /solve
	// encodes its body.
	encodeLine := func(v any) []byte {
		var buf bytes.Buffer
		if err := encodeJSON(&buf, v); err != nil {
			buf.Reset()
			encodeJSON(&buf, errorBody{Error: err.Error()}) // nolint:errcheck — a string always encodes
		}
		return buf.Bytes()
	}

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxRequestBytes)
	// Each line records under a derived id ("<batch id>.<line>"), so one
	// batch's solves group in /debug/requests under the id the batch
	// response echoed.
	baseID := RequestIDFrom(r.Context())
	lineNo := 0
	e.orderedSolves(
		func() (func() any, bool) {
			for sc.Scan() {
				line := make([]byte, len(sc.Bytes()))
				copy(line, sc.Bytes())
				if len(line) == 0 {
					continue
				}
				idx := lineNo
				lineNo++
				return func() any {
					req, err := e.decode(line)
					if err != nil {
						return encodeLine(errorBody{Error: fmt.Sprintf("decode request: %v", err)})
					}
					ctx := r.Context()
					if baseID != "" {
						ctx = WithRequestID(ctx, fmt.Sprintf("%s.%d", baseID, idx))
					}
					resp, err := e.Solve(ctx, &req)
					if err != nil {
						return encodeLine(errorBody{Error: err.Error()})
					}
					return encodeLine(resp)
				}, true
			}
			return nil, false
		},
		func(v any) {
			w.Write(v.([]byte)) // nolint:errcheck — keep draining on client loss
			if flusher != nil {
				flusher.Flush()
			}
		},
	)
	if err := sc.Err(); err != nil {
		// The stream is already partially written; append a final error
		// line rather than a status code.
		w.Write(encodeLine(errorBody{Error: fmt.Sprintf("read stream: %v", err)})) // nolint:errcheck
	}
}

// scenarioListing is the /scenarios payload.
type scenarioListing struct {
	Scenarios  []*scenario.Scenario `json:"scenarios"`
	Algorithms []string             `json:"algorithms"`
}

func (e *Engine) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, scenarioListing{
		Scenarios:  scenario.All(),
		Algorithms: Algorithms(),
	})
}

func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(e.Uptime().Seconds()),
	})
}

func (e *Engine) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, e.Metrics())
}

func (e *Engine) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.WritePrometheus(w) // nolint:errcheck — the client is gone if this fails
}

func sessionStatus(err error) int {
	if errors.Is(err, ErrSessionNotFound) {
		return http.StatusNotFound
	}
	return errStatus(err)
}

// handleSessionOpen decodes the body whole: bytes after the request
// object are an error, as they are on /solve.
func (e *Engine) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	info, err := e.OpenSession(&req)
	if err != nil {
		writeJSON(w, sessionStatus(err), errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleSessionEvents reads an NDJSON batch of online.Event lines once,
// into a pooled buffer as /solve does, and applies them in order;
// application stops at the first bad event (the preceding ones stay
// applied) and the error names the offending line. Lines split at '\n'
// with one trailing '\r' dropped, as bufio.ScanLines splits them, and
// empty lines are skipped.
func (e *Engine) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	body, err := readRequest(w, r, bp)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("read stream: %v", err)})
		return
	}
	var events []online.Event
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(line) == 0 {
			continue
		}
		ev, fallback, err := online.DecodeEvent(line)
		if fallback {
			e.met.eventDecodeFallbacks.Inc()
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode event %d: %v", len(events), err)})
			return
		}
		events = append(events, ev)
	}
	res, err := e.SessionEvents(r.Context(), id, events)
	if err != nil {
		writeJSON(w, sessionStatus(err), errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (e *Engine) handleSessionSchedule(w http.ResponseWriter, r *http.Request) {
	sched, err := e.SessionSchedule(r.Context(), r.PathValue("id"))
	if err != nil {
		writeJSON(w, sessionStatus(err), errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, sched)
}

func (e *Engine) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if err := e.CloseSession(r.PathValue("id")); err != nil {
		writeJSON(w, sessionStatus(err), errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}
