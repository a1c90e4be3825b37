package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e := New(Config{Workers: 4})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv
}

func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestHTTPSolve(t *testing.T) {
	_, srv := newTestServer(t)
	req := `{"algo":"line-unit","scenario":"videowall-line","scenario_seed":7,"seed":1}`

	status, body := postJSON(t, srv.URL+"/solve", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Algorithm != "line-unit" || resp.Scheduled == 0 {
		t.Fatalf("unexpected response: %+v", resp)
	}

	// Equal-seed requests must be byte-identical (second one is cached).
	_, body2 := postJSON(t, srv.URL+"/solve", req)
	if !bytes.Equal(body, body2) {
		t.Fatal("equal requests returned different bytes")
	}
}

func TestHTTPSolveErrors(t *testing.T) {
	_, srv := newTestServer(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"algo":"quantum","scenario":"sensor-tree"}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"algo":"tree-unit"}`, http.StatusBadRequest},
	} {
		status, body := postJSON(t, srv.URL+"/solve", tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.body, status, tc.want, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body missing: %s", tc.body, body)
		}
	}
}

func TestHTTPBatch(t *testing.T) {
	_, srv := newTestServer(t)
	lines := []string{
		`{"algo":"tree-unit","scenario":"caterpillar-backbone","scenario_seed":1}`,
		`{"algo":"bogus","scenario":"caterpillar-backbone"}`,
		`{"algo":"greedy","scenario":"sensor-tree","scenario_seed":2}`,
		`{"algo":"tree-unit","scenario":"caterpillar-backbone","scenario_seed":1}`,
	}
	resp, err := http.Post(srv.URL+"/batch", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var out []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxRequestBytes)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(lines) {
		t.Fatalf("%d response lines for %d request lines:\n%s", len(out), len(lines), strings.Join(out, "\n"))
	}
	// Order preserved: line 2 is the error, others are solutions.
	var r0, r3 Response
	if err := json.Unmarshal([]byte(out[0]), &r0); err != nil || r0.Algorithm != "tree-unit" {
		t.Errorf("line 0: %s", out[0])
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(out[1]), &eb); err != nil || eb.Error == "" {
		t.Errorf("line 1 should be an error: %s", out[1])
	}
	if err := json.Unmarshal([]byte(out[3]), &r3); err != nil {
		t.Errorf("line 3: %s", out[3])
	}
	// Identical requests (lines 0 and 3) must produce identical bytes.
	if out[0] != out[3] {
		t.Error("equal batch lines returned different bytes")
	}
}

func TestHTTPScenarios(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing scenarioListing
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Scenarios) < 8 {
		t.Errorf("%d scenarios listed, want >= 8", len(listing.Scenarios))
	}
	if len(listing.Algorithms) != 12 {
		t.Errorf("%d algorithms listed, want 12", len(listing.Algorithms))
	}
	for _, s := range listing.Scenarios {
		if s.Doc == "" || s.KindName == "" || s.DefaultAlgo == "" {
			t.Errorf("scenario %q listing incomplete: %+v", s.Name, s)
		}
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	e, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Drive one solve, then check the counters surface.
	postJSON(t, srv.URL+"/solve", `{"algo":"greedy","scenario":"sensor-tree"}`)
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 1 || snap.ResultMisses != 1 {
		t.Errorf("metrics requests=%d misses=%d, want 1/1", snap.Requests, snap.ResultMisses)
	}
	if snap.ByAlgo["greedy"] != 1 {
		t.Errorf("by-algo counter missing: %+v", snap.ByAlgo)
	}
	if e.Metrics().Requests != snap.Requests {
		t.Error("engine metrics and endpoint disagree")
	}
	if snap.SolveNanos <= 0 {
		t.Error("solve latency not recorded")
	}
}

func TestHTTPMethodRouting(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d, want 405", resp.StatusCode)
	}
}

// TestBatchLineBytesMatchSolve: one request gets the same bytes as a
// /batch line as from /solve, HTML-significant characters included,
// since both encode with HTML escaping off and end with one newline.
func TestBatchLineBytesMatchSolve(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	h := e.Handler()
	for _, body := range []string{
		`{"algo":"<b>&","scenario":"sensor-tree"}`,
		`{"algo":"greedy","scenario":"sensor-tree"}`,
	} {
		solve := postHandler(h, []byte(body), "")
		batch := httptest.NewRecorder()
		h.ServeHTTP(batch, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body+"\n")))
		if !bytes.Equal(solve.Body.Bytes(), batch.Body.Bytes()) {
			t.Fatalf("%s: /solve answered\n%s\nand /batch\n%s", body, solve.Body, batch.Body)
		}
	}
	if rec := postHandler(h, []byte(`{"algo":"<b>&","scenario":"sensor-tree"}`), ""); !strings.Contains(rec.Body.String(), `<b>&`) {
		t.Fatalf("error quotes the algorithm escaped: %s", rec.Body)
	}
}

// TestRequestIDHeaderWireForm: a client may send X-Request-ID in any
// case, and the id is echoed on the wire as X-Request-Id, the canonical
// form net/http writes.
func TestRequestIDHeaderWireForm(t *testing.T) {
	_, srv := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"algo":"greedy","scenario":"sensor-tree"}`
	fmt.Fprintf(conn, "POST /solve HTTP/1.1\r\nHost: test\r\nX-REQUEST-ID: wire-7\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("HTTP/1.1 200 ")) || !bytes.Contains(raw, []byte("\r\nX-Request-Id: wire-7\r\n")) {
		t.Fatalf("response does not echo X-Request-Id: wire-7:\n%s", raw)
	}
}
