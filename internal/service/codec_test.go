package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/online"
	"treesched/internal/scenario"
)

// genBodies are inline /solve bodies as an encoding/json client writes
// them, one per gen family: random, caterpillar and binary trees, unit
// and non-unit heights, capacitated trees and lines, exact-count access.
func genBodies(tb testing.TB, demands int) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	problems := []*instance.Problem{
		gen.TreeProblem(gen.TreeConfig{N: 48, Trees: 3, Demands: demands, Unit: true}, rng),
		gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 4, Demands: demands, Shape: gen.ShapeCaterpillar, Unit: true, AccessProb: 0.6}, rng),
		gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 4, Demands: demands, Shape: gen.ShapeBinary, AccessProb: 0.6}, rng),
		gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 4, Demands: demands, HMin: 0.1, HMax: 1, Capacity: 1.6, CapJitter: 0.5, AccessProb: 0.6}, rng),
		gen.LineProblem(gen.LineConfig{Slots: 48, Resources: 3, Demands: demands, Unit: true, MaxProc: 6, Slack: 6}, rng),
		gen.LineProblem(gen.LineConfig{Slots: 40, Resources: 3, Demands: demands, Capacity: 2, CapJitter: 1}, rng),
		gen.LineProblem(gen.LineConfig{Slots: 30, Resources: 9, Demands: demands, AccessCount: 4}, rng),
	}
	var out [][]byte
	for i, p := range problems {
		body, err := json.Marshal(Request{Algo: "greedy", Problem: p, Epsilon: 0.125 * float64(i%2), Seed: uint64(i), MaxNodes: int64(i)})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// referenceProblem decodes through instance's encoding/json reference
// path alone.
type referenceProblem struct{ p instance.Problem }

func (r *referenceProblem) UnmarshalJSON(data []byte) error { return r.p.UnmarshalReflect(data) }

// referenceDecode is decodeRequest's oracle: json.Unmarshal with the
// problem decoded by instance.UnmarshalReflect, so no byte of the input
// can reach the fast parser.
func referenceDecode(body []byte) (out Request, err error) {
	// This Request mirrors the package's field for field and under the
	// same name, because encoding/json's type errors name the struct.
	type Request struct {
		Algo           string            `json:"algo"`
		Problem        *referenceProblem `json:"problem,omitempty"`
		Scenario       string            `json:"scenario,omitempty"`
		ScenarioSeed   int64             `json:"scenario_seed,omitempty"`
		ScenarioParams scenario.Params   `json:"scenario_params,omitzero"`
		Epsilon        float64           `json:"epsilon,omitempty"`
		Seed           uint64            `json:"seed,omitempty"`
		FixedRounds    bool              `json:"fixed_rounds,omitempty"`
		MaxNodes       int64             `json:"max_nodes,omitempty"`
	}
	var r Request
	if err := json.Unmarshal(body, &r); err != nil {
		return out, err
	}
	out.Algo, out.Scenario, out.ScenarioSeed, out.ScenarioParams = r.Algo, r.Scenario, r.ScenarioSeed, r.ScenarioParams
	out.Epsilon, out.Seed, out.FixedRounds, out.MaxNodes = r.Epsilon, r.Seed, r.FixedRounds, r.MaxNodes
	if r.Problem != nil {
		out.Problem = &r.Problem.p
	}
	return out, nil
}

// FuzzDecodeRequest: for any bytes, decodeRequest returns what the
// reflection path alone returns, a deeply equal Request (trees
// included, floats bit for bit) or the identical error string.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range genBodies(f, 6) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, _, gotErr := decodeRequest(body)
		want, wantErr := referenceDecode(body)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, reference %v", gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, reference %+v", got, want)
		}
		// DeepEqual takes -0 for 0; the wire form does not.
		if math.Float64bits(got.Epsilon) != math.Float64bits(want.Epsilon) {
			t.Fatalf("epsilon %v, reference %v", got.Epsilon, want.Epsilon)
		}
		if got.Problem != nil {
			g, gErr := json.Marshal(got.Problem)
			w, wErr := json.Marshal(want.Problem)
			if !bytes.Equal(g, w) || fmt.Sprint(gErr) != fmt.Sprint(wErr) {
				t.Fatalf("problem re-encodes as %s, reference %s", g, w)
			}
		}
	})
}

// TestDecodeFallbackCounter: every gen family's encoding/json body takes
// the fast path on /solve and on a /batch line, so the fallback counter
// stays 0; one hostile body moves it to 1 in /metrics and
// /metrics.prom. The counter counts decodes: the hostile body's problem
// was solved above, so its first sight is a result hit that stores the
// answer, and its repeats are body hits, never decoded.
func TestDecodeFallbackCounter(t *testing.T) {
	e, srv := newTestServer(t)
	bodies := genBodies(t, 40)
	for i, body := range bodies {
		if status, resp := postJSON(t, srv.URL+"/solve", string(body)); status != http.StatusOK {
			t.Fatalf("family %d: status %d: %s", i, status, resp)
		}
	}
	if status, resp := postJSON(t, srv.URL+"/batch", string(bytes.Join(bodies, []byte("\n")))); status != http.StatusOK || bytes.Contains(resp, []byte(`"error"`)) {
		t.Fatalf("batch: status %d: %.300s", status, resp)
	}
	if n := e.Metrics().RequestDecodeFallbacks; n != 0 {
		t.Fatalf("%d encoding/json bodies fell back to encoding/json", n)
	}

	hostile := strings.Replace(string(bodies[0]), `"algo"`, `"Algo"`, 1)
	if status, resp := postJSON(t, srv.URL+"/solve", hostile); status != http.StatusOK {
		t.Fatalf("case-folded key: status %d: %s", status, resp)
	}
	if n := e.Metrics().RequestDecodeFallbacks; n != 1 {
		t.Fatalf("fallback counter %d after one hostile body, want 1", n)
	}
	if got := flatten(scrapeProm(t, srv.URL))["sched_request_decode_fallback_total"]; got != 1 {
		t.Fatalf("sched_request_decode_fallback_total = %g, want 1", got)
	}

	for range 2 {
		if status, resp := postJSON(t, srv.URL+"/solve", hostile); status != http.StatusOK {
			t.Fatalf("case-folded key, repeated: status %d: %s", status, resp)
		}
	}
	if s := e.Metrics(); s.RequestDecodeFallbacks != 1 || s.ResultBodyHits != 2 {
		t.Fatalf("after three sights of the hostile body: %d fallbacks, %d body hits; want 1 and 2", s.RequestDecodeFallbacks, s.ResultBodyHits)
	}
	fams := flatten(scrapeProm(t, srv.URL))
	if fams["sched_request_decode_fallback_total"] != 1 || fams["sched_result_cache_body_hits_total"] != 2 {
		t.Fatalf("exposition: %g fallbacks, %g body hits; want 1 and 2",
			fams["sched_request_decode_fallback_total"], fams["sched_result_cache_body_hits_total"])
	}
}

// TestConcurrentSolveBodies drives the pooled body buffers and hash
// scratch from several connections at once: every response must match
// the bytes the same body got when sent alone.
func TestConcurrentSolveBodies(t *testing.T) {
	_, srv := newTestServer(t)
	bodies := genBodies(t, 30)
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		var status int
		if status, want[i] = postJSON(t, srv.URL+"/solve", string(body)); status != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, status, want[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3*len(bodies); k++ {
				i := (g + 5*k) % len(bodies)
				resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("body %d: response differs under concurrency (err %v)", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHashProblemStreamsCanonicalBytes: the streamed hash equals SHA-256
// over json.Marshal's bytes, for problems far larger than the stream
// buffer, and a float JSON cannot carry is a bad request.
func TestHashProblemStreamsCanonicalBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, p := range []*instance.Problem{
		testProblem(1),
		gen.TreeProblem(gen.TreeConfig{N: 300, Trees: 4, Demands: 2000, Capacity: 2, CapJitter: 1}, rng),
		gen.LineProblem(gen.LineConfig{Slots: 500, Resources: 5, Demands: 1500, Capacity: 2, CapJitter: 1}, rng),
	} {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got, err := hashProblem(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("streamed hash %s, SHA-256 of json.Marshal %s (%d bytes)", got, want, len(data))
		}
	}

	e := New(Config{})
	defer e.Close()
	p := testProblem(2)
	p.Demands[3].Profit = math.NaN()
	if _, err := e.Solve(context.Background(), &Request{Algo: "greedy", Problem: p}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("NaN profit: %v, want ErrBadRequest", err)
	}
}

// TestReadBody: the body comes back whole whether or not its length is
// announced, an announced length up to maxPresize costs one
// exactly-sized buffer, and a larger announcement allocates no more
// than maxPresize before its bytes arrive.
func TestReadBody(t *testing.T) {
	for _, n := range []int{0, 1, 4095, maxPresize, 70_000} {
		want := bytes.Repeat([]byte("x"), n)
		for _, size := range []int64{int64(n), -1} {
			got, err := readBody(iotest.HalfReader(bytes.NewReader(want)), size, nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("n=%d size=%d: read %d bytes, err %v", n, size, len(got), err)
			}
			if size > 0 && n <= maxPresize && cap(got) != n+1 {
				t.Errorf("n=%d: announced body grew its buffer to %d", n, cap(got))
			}
		}
	}

	// A pooled buffer that holds the body is used as it is, even when
	// the announced size is larger than the presize cap.
	pooled := make([]byte, 0, 80_000)
	body := bytes.Repeat([]byte("x"), 70_000)
	if got, err := readBody(bytes.NewReader(body), 200_000, pooled); err != nil || cap(got) != cap(pooled) {
		t.Errorf("pooled %d-byte buffer replaced by one of %d (err %v)", cap(pooled), cap(got), err)
	}

	// A client that announces a near-maximal body and sends ten bytes.
	got, err := readBody(strings.NewReader("0123456789"), maxRequestBytes-1, nil)
	if err != nil || string(got) != "0123456789" {
		t.Fatalf("short body: %q, err %v", got, err)
	}
	if cap(got) > maxPresize+1 {
		t.Errorf("announced %d bytes, sent 10: buffer of %d allocated up front, cap is %d", maxRequestBytes-1, cap(got), maxPresize+1)
	}

	if _, err := readBody(iotest.ErrReader(errors.New("boom")), -1, nil); err == nil {
		t.Fatal("read error swallowed")
	}
}

// memoBody is a memo-hit-sized /solve body: a 200-demand tree problem.
func memoBody(tb testing.TB) ([]byte, *instance.Problem) {
	p := gen.TreeProblem(gen.TreeConfig{N: 48, Trees: 3, Demands: 200, Unit: true, AccessProb: 0.5}, rand.New(rand.NewSource(1)))
	body, err := json.Marshal(Request{Algo: "tree-unit", Problem: p})
	if err != nil {
		tb.Fatal(err)
	}
	return body, p
}

// BenchmarkDecodeRequest decodes a memo-hit-sized body on the fast
// path, and the same body with a repeated member just before the
// problem's closing brace: the latest decline inside the problem, which
// pays for the fast pass and then the whole encoding/json fallback.
func BenchmarkDecodeRequest(b *testing.B) {
	body, _ := memoBody(b)
	late := bytes.Replace(body, []byte(`]}}`), []byte(`],"kind":"tree"}}`), 1)
	for _, c := range []struct {
		name     string
		body     []byte
		fallback bool
	}{{"canonical", body, false}, {"late-decline", late, true}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for b.Loop() {
				req, fallback, err := decodeRequest(c.body)
				if err != nil || fallback != c.fallback || req.Problem == nil {
					b.Fatalf("fallback=%v err=%v", fallback, err)
				}
			}
		})
	}
}

// BenchmarkHashProblem hashes a memo-hit-sized problem.
func BenchmarkHashProblem(b *testing.B) {
	_, p := memoBody(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := hashProblem(p); err != nil {
			b.Fatal(err)
		}
	}
}

// churnBatches returns a session-open body and event batches shaped as
// perfbench's session-churn writes them: removes, adds of unit tree
// demands and a resolve, encoding/json lines, with the number of events
// each batch holds. The second batch has CRLF endings and a blank line,
// which is skipped.
func churnBatches(t *testing.T) (open []byte, batches []string, events []int) {
	t.Helper()
	const jobs = 24
	p := gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 3, Demands: 2 * jobs, Shape: gen.ShapeRandom, Unit: true, AccessProb: 0.5}, rand.New(rand.NewSource(5)))
	network := *p
	network.Demands = p.Demands[:jobs]
	open, err := json.Marshal(SessionRequest{Algo: "tree-unit", Network: &network})
	if err != nil {
		t.Fatal(err)
	}
	line := func(ev online.Event) string {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for b := 0; b < 4; b++ {
		var lines []string
		rm, add := b*3, jobs+b*3
		for i := rm; i < rm+3; i++ {
			lines = append(lines, line(online.Event{Op: online.OpRemove, ID: int64(i)}))
		}
		for i := add; i < add+3; i++ {
			lines = append(lines, line(online.Event{Op: online.OpAdd, Job: &online.Job{ID: int64(i), Demand: p.Demands[i]}}))
		}
		lines = append(lines, line(online.Event{Op: online.OpResolve}))
		body := strings.Join(lines, "\n") + "\n"
		if b == 1 {
			body = strings.Join(lines, "\r\n") + "\r\n\r\n"
		}
		batches, events = append(batches, body), append(events, len(lines))
	}
	return open, batches, events
}

// openSessionHTTP opens a session through POST /session and returns its
// id.
func openSessionHTTP(t *testing.T, url string, open []byte) string {
	t.Helper()
	status, resp := postJSON(t, url+"/session", string(open))
	var info SessionInfo
	if status != http.StatusOK || json.Unmarshal(resp, &info) != nil {
		t.Fatalf("open: status %d: %s", status, resp)
	}
	return info.SessionID
}

// sessionRun posts batches to session id and returns its schedule body
// with the id replaced by "SID". It reports failures as errors, so other
// goroutines than the test's may call it.
func sessionRun(url, id string, batches []string, events []int) ([]byte, error) {
	for k, body := range batches {
		resp, err := http.Post(url+"/session/"+id+"/events", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		var res SessionEventsResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || res.Applied != events[k] {
			return nil, fmt.Errorf("batch %d: status %d, %d applied, want %d (%v)", k, resp.StatusCode, res.Applied, events[k], err)
		}
	}
	resp, err := http.Get(url + "/session/" + id + "/schedule")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("schedule: status %d: %s (%v)", resp.StatusCode, body, err)
	}
	return bytes.ReplaceAll(body, []byte(id), []byte("SID")), nil
}

// TestSessionEventDecodeFallbackCounter: perfbench-shaped event batches
// (churnBatches) take the fast event codec, so the event fallback
// counter stays 0; one case-folded line moves it to 1 in /metrics and
// /metrics.prom, and is applied as encoding/json decodes it.
func TestSessionEventDecodeFallbackCounter(t *testing.T) {
	e, srv := newTestServer(t)
	open, batches, events := churnBatches(t)
	id := openSessionHTTP(t, srv.URL, open)
	if _, err := sessionRun(srv.URL, id, batches, events); err != nil {
		t.Fatal(err)
	}
	fallbacks := func() (jsonCount int64, prom float64) {
		t.Helper()
		r, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var snap MetricsSnapshot
		err = json.NewDecoder(r.Body).Decode(&snap)
		r.Body.Close()
		if r.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("/metrics: status %d: %v", r.StatusCode, err)
		}
		return snap.SessionEventDecodeFallbacks, flatten(scrapeProm(t, srv.URL))["sched_session_event_decode_fallback_total"]
	}
	if j, prom := fallbacks(); j != 0 || prom != 0 {
		t.Fatalf("event fallbacks after encoding/json batches: %d in /metrics, %g in /metrics.prom", j, prom)
	}
	if _, err := sessionRun(srv.URL, id, []string{`{"Op":"remove","ID":30}` + "\n"}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if j, prom := fallbacks(); j != 1 || prom != 1 {
		t.Fatalf("event fallbacks after one case-folded line: %d in /metrics, %g in /metrics.prom, want 1", j, prom)
	}
	if n := e.Metrics().RequestDecodeFallbacks; n != 0 {
		t.Fatalf("event lines moved the request fallback counter to %d", n)
	}
}

// TestSessionEventBatchesConcurrent: event batches and /solve bodies
// share the pooled body buffers, so decoded events must share no memory
// with them. Four sessions fed the same batches at once, beside /solve
// traffic, must each end with the schedule one session fed alone ends
// with.
func TestSessionEventBatchesConcurrent(t *testing.T) {
	_, srv := newTestServer(t)
	open, batches, events := churnBatches(t)
	want, err := sessionRun(srv.URL, openSessionHTTP(t, srv.URL, open), batches, events)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = openSessionHTTP(t, srv.URL, open)
	}
	bodies := genBodies(t, 6)
	var wg sync.WaitGroup
	got := make([][]byte, len(ids))
	errs := make([]error, len(ids)+1)
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = sessionRun(srv.URL, id, batches, events)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, body := range bodies {
			resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[len(ids)] = err
				return
			}
			io.Copy(io.Discard, resp.Body) // nolint:errcheck — only the status matters here
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[len(ids)] = fmt.Errorf("/solve: status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := range got {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("session %d's schedule differs from a lone session's:\n%s\n%s", i, got[i], want)
		}
	}
}
