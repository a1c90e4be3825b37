package service

// Error-path contract tests: every handler failure must produce exactly
// one status code with a JSON body, and the NDJSON streams (/batch,
// /session/{id}/events) must never follow partial output with a second
// status line or a bare http.Error. The strict server below captures the
// http.Server error log, where the standard library reports
// "superfluous response.WriteHeader" — a double status write anywhere in
// a handler fails the test even if the client happened to see a sane
// response.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// strictServer wraps httptest.Server with a captured error log.
type strictServer struct {
	*httptest.Server
	e   *Engine
	mu  sync.Mutex
	buf bytes.Buffer
}

func newStrictServer(t *testing.T) *strictServer {
	t.Helper()
	e := New(Config{Workers: 2})
	s := &strictServer{e: e}
	s.Server = httptest.NewUnstartedServer(e.Handler())
	s.Server.Config.ErrorLog = log.New(&syncWriter{mu: &s.mu, buf: &s.buf}, "", 0)
	s.Server.Start()
	t.Cleanup(func() {
		s.Close()
		e.Close()
		s.assertCleanLog(t)
	})
	return s
}

type syncWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// assertCleanLog fails if any handler wrote a second status code or
// otherwise tripped the server ("superfluous response.WriteHeader").
func (s *strictServer) assertCleanLog(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if logged := s.buf.String(); strings.Contains(logged, "superfluous") {
		t.Errorf("a handler wrote more than one status code:\n%s", logged)
	}
}

// wantJSONError asserts a single well-formed error body.
func wantJSONError(t *testing.T, context string, status, wantStatus int, body []byte) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("%s: status %d, want %d: %s", context, status, wantStatus, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("%s: body is not a single JSON error object: %s", context, body)
	}
	// Exactly one JSON document: decoding must consume the whole body.
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&eb); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	if dec.More() {
		t.Fatalf("%s: more than one JSON document in an error response: %s", context, body)
	}
}

// TestSessionEventsErrorPaths: the events handler buffers and validates
// the whole NDJSON stream before touching the session, so every failure
// mode — unknown session, malformed line, semantically bad event — is
// one status code with one JSON body, never a status after partial
// output.
func TestSessionEventsErrorPaths(t *testing.T) {
	srv := newStrictServer(t)

	status, body := postJSON(t, srv.URL+"/session/nope/events", `{"op":"resolve"}`)
	wantJSONError(t, "unknown session", status, http.StatusNotFound, body)

	// A real session for the remaining cases.
	status, body = postJSON(t, srv.URL+"/session",
		`{"algo":"tree-unit","scenario":"caterpillar-backbone","scenario_seed":1}`)
	if status != http.StatusOK {
		t.Fatalf("open session: status %d: %s", status, body)
	}
	var info SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	events := srv.URL + "/session/" + info.SessionID + "/events"

	// Malformed JSON on line 2: 400, one body, nothing applied.
	status, body = postJSON(t, events,
		`{"op":"add","job":{"id":1,"demand":{"id":0,"u":0,"v":1,"profit":1,"height":1,"access":[0]}}}`+"\n"+
			`{"op":`+"\n")
	wantJSONError(t, "malformed event line", status, http.StatusBadRequest, body)

	// Semantically bad event mid-stream (remove of a job that does not
	// exist): one status, one JSON body — the error names the event.
	status, body = postJSON(t, events,
		`{"op":"add","job":{"id":1,"demand":{"id":0,"u":0,"v":1,"profit":1,"height":1,"access":[0]}}}`+"\n"+
			`{"op":"remove","id":99}`+"\n"+
			`{"op":"resolve"}`+"\n")
	wantJSONError(t, "bad event mid-stream", status, http.StatusBadRequest, body)

	// Unknown op: same contract.
	status, body = postJSON(t, events, `{"op":"frobnicate"}`)
	wantJSONError(t, "unknown op", status, http.StatusBadRequest, body)

	// Schedule of a session that never resolved anything after the
	// failures above must still be a single clean status.
	resp, err := http.Get(srv.URL + "/session/" + info.SessionID + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Unknown session id on the remaining session routes.
	resp, err = http.Get(srv.URL + "/session/nope/schedule")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if resp.StatusCode != http.StatusNotFound ||
		json.NewDecoder(resp.Body).Decode(&eb) != nil || eb.Error == "" {
		t.Fatalf("schedule of unknown session: status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/session/nope", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	eb = errorBody{}
	if dresp.StatusCode != http.StatusNotFound ||
		json.NewDecoder(dresp.Body).Decode(&eb) != nil || eb.Error == "" {
		t.Fatalf("delete of unknown session: status %d", dresp.StatusCode)
	}
}

// TestBatchErrorPathsStayInBand: /batch commits to a 200 NDJSON stream
// up front, so per-line failures and even a stream-read failure must
// arrive as in-band {"error": ...} lines — every output line valid
// JSON, exactly one status code, no trailing bare http.Error.
func TestBatchErrorPathsStayInBand(t *testing.T) {
	srv := newStrictServer(t)

	// All lines fail: still one 200 + one error line per input line.
	lines := strings.Join([]string{
		`{"algo":"bogus","scenario":"sensor-tree"}`,
		`not json at all`,
		`{"algo":"tree-unit"}`,
	}, "\n") + "\n"
	resp, err := http.Post(srv.URL+"/batch", "application/x-ndjson", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with in-band errors", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxRequestBytes)
	count := 0
	for sc.Scan() {
		count++
		var eb errorBody
		if err := json.Unmarshal(sc.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Fatalf("line %d is not a JSON error object: %s", count, sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("%d output lines for 3 failing inputs", count)
	}

	// A line exceeding the scanner buffer kills the read mid-stream:
	// the good line's response is followed by an in-band read-error
	// line, never a second status code.
	huge := `{"algo":"tree-unit","pad":"` + strings.Repeat("x", maxRequestBytes+1024) + `"}`
	resp2, err := http.Post(srv.URL+"/batch", "application/x-ndjson",
		strings.NewReader(`{"algo":"greedy","scenario":"sensor-tree","scenario_seed":2}`+"\n"+huge+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200", resp2.StatusCode)
	}
	sc2 := bufio.NewScanner(resp2.Body)
	sc2.Buffer(make([]byte, 0, 64*1024), maxRequestBytes)
	var outLines []string
	for sc2.Scan() {
		outLines = append(outLines, sc2.Text())
		if !json.Valid(sc2.Bytes()) {
			t.Fatalf("non-JSON output line after stream failure: %s", sc2.Text())
		}
	}
	if err := sc2.Err(); err != nil {
		t.Fatal(err)
	}
	if len(outLines) != 2 {
		t.Fatalf("want solved line + in-band read-error line, got %d lines:\n%s",
			len(outLines), strings.Join(outLines, "\n"))
	}
	var solved Response
	if err := json.Unmarshal([]byte(outLines[0]), &solved); err != nil || solved.Algorithm == "" {
		t.Fatalf("first line is not the solved response: %s", outLines[0])
	}
	var readErr errorBody
	if err := json.Unmarshal([]byte(outLines[1]), &readErr); err != nil || readErr.Error == "" {
		t.Fatalf("last line is not the in-band read error: %s", outLines[1])
	}
}

// TestSolveErrorSingleDocument: /solve error bodies are exactly one
// JSON document (regression guard against an errorBody followed by a
// second partial write). Bytes after the request object are an error,
// as on a /batch line, not a request /solve half-reads; the same holds
// for POST /session, which opens no session for such a body.
func TestSolveErrorSingleDocument(t *testing.T) {
	srv := newStrictServer(t)
	for _, body := range []string{
		`{"algo":"quantum","scenario":"sensor-tree"}`,
		`{`,
		fmt.Sprintf(`{"algo":"tree-unit","scenario":"line-100k","scenario_params":{"demands":%d}}`, 2_000_000),
		`{"algo":"greedy","scenario":"sensor-tree"} garbage`,
		`{"algo":"greedy","scenario":"sensor-tree"}{"algo":"exact"}`,
	} {
		status, resp := postJSON(t, srv.URL+"/solve", body)
		wantJSONError(t, body[:min(len(body), 40)], status, http.StatusBadRequest, resp)
	}
	for _, body := range []string{
		`{`,
		`{"algo":"tree-unit","scenario":"caterpillar-backbone"} trailing garbage {`,
		`{"algo":"tree-unit","scenario":"caterpillar-backbone"}{"algo":"greedy"}`,
	} {
		status, resp := postJSON(t, srv.URL+"/session", body)
		wantJSONError(t, "session "+body[:min(len(body), 40)], status, http.StatusBadRequest, resp)
	}
	if n := srv.e.Metrics().SessionsOpened; n != 0 {
		t.Fatalf("%d sessions opened by malformed bodies", n)
	}
}

// TestNonFiniteAnswerIsAnError: JSON carries no infinity, so a problem
// whose total profit overflows float64 (refused when decoded), or whose
// dual does (refused once solved), gets one JSON error on every route —
// /solve on every send, /batch in band, POST /session or the session's
// schedule — and leaves no entry in the result or body cache. A value
// the encoder refuses anyway is a 500 with one JSON error, never a
// status over an empty body.
func TestNonFiniteAnswerIsAnError(t *testing.T) {
	srv := newStrictServer(t)
	tree := `{"kind":"tree","num_vertices":3,"tree_edges":[[[1,0],[2,1]]],"demands":[`
	sumOverflows := tree + `{"id":0,"v":1,"profit":1.5e308,"height":1,"access":[0]},{"id":1,"u":1,"v":2,"profit":1.5e308,"height":1,"access":[0]}]}`
	dualOverflows := tree + `{"id":0,"v":1,"profit":1.7e308,"height":1,"access":[0]}]}`

	for _, algo := range []string{"greedy", "tree-unit", "sequential", "exact"} {
		body := fmt.Sprintf(`{"algo":%q,"problem":%s}`, algo, sumOverflows)
		for send := 1; send <= 2; send++ {
			status, resp := postJSON(t, srv.URL+"/solve", body)
			wantJSONError(t, fmt.Sprintf("%s send %d", algo, send), status, http.StatusBadRequest, resp)
		}
	}
	for send := 1; send <= 2; send++ {
		status, resp := postJSON(t, srv.URL+"/solve", `{"algo":"tree-unit","problem":`+dualOverflows+`}`)
		wantJSONError(t, fmt.Sprintf("dual overflow send %d", send), status, http.StatusBadRequest, resp)
	}

	status, resp := postJSON(t, srv.URL+"/batch",
		`{"algo":"greedy","problem":`+sumOverflows+`}`+"\n"+`{"algo":"tree-unit","problem":`+dualOverflows+`}`+"\n")
	lines := bytes.Split(bytes.TrimSuffix(resp, []byte("\n")), []byte("\n"))
	if status != http.StatusOK || len(lines) != 2 {
		t.Fatalf("batch: status %d, %d lines: %s", status, len(lines), resp)
	}
	for i, line := range lines {
		wantJSONError(t, fmt.Sprintf("batch line %d", i), http.StatusOK, http.StatusOK, line)
	}

	status, resp = postJSON(t, srv.URL+"/session", `{"algo":"tree-unit","network":`+sumOverflows+`}`)
	wantJSONError(t, "session open", status, http.StatusBadRequest, resp)
	status, resp = postJSON(t, srv.URL+"/session", `{"algo":"tree-unit","network":`+dualOverflows+`}`)
	var info SessionInfo
	if err := json.Unmarshal(resp, &info); status != http.StatusOK || err != nil {
		t.Fatalf("open session: status %d: %s", status, resp)
	}
	for read := 1; read <= 2; read++ {
		status, resp := getStatus(t, srv.URL+"/session/"+info.SessionID+"/schedule")
		wantJSONError(t, fmt.Sprintf("schedule read %d", read), status, http.StatusBadRequest, resp)
	}

	if r, b := srv.e.results.len(), srv.e.bodies.len(); r != 0 || b != 0 {
		t.Fatalf("%d result-cache and %d body-cache entries after errors only", r, b)
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.Inf(1))
	wantJSONError(t, "unencodable value", rec.Code, http.StatusInternalServerError, rec.Body.Bytes())
}
