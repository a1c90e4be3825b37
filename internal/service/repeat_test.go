package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// replayWriter is a reusable http.ResponseWriter: the allocation pin
// and the benchmark count the handler's allocations, not a recorder's.
type replayWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *replayWriter) Header() http.Header         { return w.h }
func (w *replayWriter) WriteHeader(status int)      { w.status = status }
func (w *replayWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// repeatHarness sends one body to /solve through Handler() with a
// request and a writer made once, so a send allocates only what the
// engine and its mux allocate.
type repeatHarness struct {
	h   http.Handler
	w   *replayWriter
	req *http.Request
	rd  *bytes.Reader
}

func newRepeatHarness(e *Engine, body []byte) *repeatHarness {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/solve", nil)
	req.Body = io.NopCloser(rd)
	req.ContentLength = int64(len(body))
	return &repeatHarness{h: e.Handler(), w: &replayWriter{h: http.Header{}}, req: req, rd: rd}
}

func (s *repeatHarness) send(body []byte) {
	s.rd.Reset(body)
	clear(s.w.h)
	s.w.status = 0
	s.w.body.Reset()
	s.h.ServeHTTP(s.w, s.req)
}

// postHandler POSTs body to /solve through h, with an X-Request-ID
// when id is set.
func postHandler(h http.Handler, body []byte, id string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRepeatBodyCountsAsResultHit: the third sight of a body, answered
// from its stored bytes, moves every counter and record the second
// sight (a result hit on the full path) moves, writes the same bytes,
// echoes the request id, and is never decoded.
func TestRepeatBodyCountsAsResultHit(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	h := e.Handler()
	bodies := genBodies(t, 12)
	hostile := strings.Replace(string(bodies[5]), `"algo"`, `"Algo"`, 1) // decoded by the fallback

	for _, body := range [][]byte{bodies[6], []byte(hostile)} {
		cold := postHandler(h, body, "")
		if cold.Code != http.StatusOK {
			t.Fatalf("cold: status %d: %s", cold.Code, cold.Body)
		}
		type counts struct {
			requests, errors, hits, misses, bodyHits, fallbacks, greedy, good, total int64
		}
		read := func() counts {
			s := e.Metrics()
			return counts{s.Requests, s.Errors, s.ResultHits, s.ResultMisses, s.ResultBodyHits,
				s.RequestDecodeFallbacks, s.ByAlgo["greedy"], s.SLO["solve"].Good, s.SLO["solve"].Total}
		}
		c0 := read()
		memo := postHandler(h, body, "memo-"+strconv.Itoa(len(body)))
		c1 := read()
		repeat := postHandler(h, body, "repeat-"+strconv.Itoa(len(body)))
		c2 := read()

		if !bytes.Equal(memo.Body.Bytes(), cold.Body.Bytes()) || !bytes.Equal(repeat.Body.Bytes(), cold.Body.Bytes()) {
			t.Fatalf("bytes differ across sights:\ncold   %.120s\nmemo   %.120s\nrepeat %.120s", cold.Body, memo.Body, repeat.Body)
		}
		if repeat.Code != http.StatusOK || repeat.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("repeat: status %d, content type %q", repeat.Code, repeat.Header().Get("Content-Type"))
		}
		if got := repeat.Header().Get("X-Request-ID"); got != "repeat-"+strconv.Itoa(len(body)) {
			t.Fatalf("repeat echoed X-Request-ID %q", got)
		}
		sub := func(a, b counts) counts {
			return counts{b.requests - a.requests, b.errors - a.errors, b.hits - a.hits, b.misses - a.misses,
				b.bodyHits - a.bodyHits, b.fallbacks - a.fallbacks, b.greedy - a.greedy, b.good - a.good, b.total - a.total}
		}
		viaMemo, viaBody := sub(c0, c1), sub(c1, c2)
		if viaMemo.bodyHits != 0 || viaBody.bodyHits != 1 || viaBody.fallbacks != 0 {
			t.Fatalf("memo sight %+v, repeat sight %+v: want one body hit, on the repeat, and no decode", viaMemo, viaBody)
		}
		viaMemo.bodyHits, viaBody.bodyHits = 0, 0
		viaMemo.fallbacks = 0
		if want := (counts{requests: 1, hits: 1, greedy: 1, good: 1, total: 1}); viaMemo != want || viaBody != want {
			t.Fatalf("memo sight moved %+v, repeat sight %+v, want %+v", viaMemo, viaBody, want)
		}
		for _, id := range []string{"memo-", "repeat-"} {
			rec, ok := e.Recorder().Lookup(id + strconv.Itoa(len(body)))
			if !ok || rec.Outcome != outcomeResultHit || rec.Algo != "greedy" || rec.Endpoint != "solve" || rec.Error != "" {
				t.Fatalf("%s record %+v (found %v)", id, rec, ok)
			}
		}
	}
}

// TestRepeatBodyFallsBackWhenEvicted: an entry whose answer has left
// the result cache sends its body down the full path, which solves it
// again, and the bytes do not change.
func TestRepeatBodyFallsBackWhenEvicted(t *testing.T) {
	e := New(Config{Workers: 1, ResultCacheSize: 1, CacheShards: 1})
	defer e.Close()
	h := e.Handler()
	bodies := genBodies(t, 12)
	a, b := bodies[0], bodies[4]
	want := postHandler(h, a, "").Body.String()
	postHandler(h, a, "") // the entry
	postHandler(h, b, "") // evicts a's answer
	misses := e.Metrics().ResultMisses
	if got := postHandler(h, a, "").Body.String(); got != want {
		t.Fatalf("after eviction: %.120s, want %.120s", got, want)
	}
	if s := e.Metrics(); s.ResultMisses != misses+1 || s.ResultBodyHits != 0 {
		t.Fatalf("misses %d → %d, body hits %d: want one miss and no body hit", misses, s.ResultMisses, s.ResultBodyHits)
	}
	if got := postHandler(h, a, "").Body.String(); got != want || e.Metrics().ResultBodyHits != 1 {
		t.Fatalf("the kept entry serves the answer solved again: %.120s, body hits %d", got, e.Metrics().ResultBodyHits)
	}
}

// maxBodyHitAllocs pins the allocations of one body hit through
// Handler(), at the count measured (go1.24, linux/amd64). None is the
// body cache's: the request id and the endpoint put in the context
// (each boxed, then wrapped) and the request copy that carries them,
// the body limit, two response headers, and the recorder's id and
// record.
const maxBodyHitAllocs = 10

// TestBodyHitAllocs pins what one repeated memo-hit-sized body costs
// in allocations.
func TestBodyHitAllocs(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	body, _ := memoBody(t)
	s := newRepeatHarness(e, body)
	s.send(body)
	want := append([]byte(nil), s.w.body.Bytes()...)
	s.send(body)
	allocs := testing.AllocsPerRun(50, func() { s.send(body) })
	if s.w.status != http.StatusOK || !bytes.Equal(s.w.body.Bytes(), want) {
		t.Fatalf("body hit: status %d, %d bytes, want the %d bytes of the first answer", s.w.status, s.w.body.Len(), len(want))
	}
	if hits := e.Metrics().ResultBodyHits; hits != 51 {
		t.Fatalf("%d body hits over 51 repeats", hits)
	}
	if allocs > maxBodyHitAllocs {
		t.Fatalf("%.0f allocations per body hit, pinned at %d", allocs, maxBodyHitAllocs)
	}
}

// BenchmarkSolveRepeatBody answers a memo-hit-sized body (a 200-demand
// tree problem under tree-unit, E20's memo-hit size) from its stored
// bytes through Handler().
func BenchmarkSolveRepeatBody(b *testing.B) {
	e := New(Config{})
	defer e.Close()
	body, _ := memoBody(b)
	s := newRepeatHarness(e, body)
	s.send(body)
	s.send(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		s.send(body)
	}
	if s.w.status != http.StatusOK || e.Metrics().ResultBodyHits == 0 {
		b.Fatalf("status %d, %d body hits", s.w.status, e.Metrics().ResultBodyHits)
	}
}

// fuzzCorpus returns the inputs of a committed native-fuzz corpus
// directory (one []byte argument per file).
func fuzzCorpus(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			tb.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, maxRequestBytes)
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		f.Close()
		if err := sc.Err(); err != nil {
			tb.Fatal(err)
		}
		var val string
		if len(lines) == 2 && lines[0] == "go test fuzz v1" &&
			strings.HasPrefix(lines[1], "[]byte(") && strings.HasSuffix(lines[1], ")") {
			val, err = strconv.Unquote(lines[1][len("[]byte(") : len(lines[1])-1])
		} else {
			err = os.ErrInvalid
		}
		if err != nil {
			tb.Fatalf("%s: not a one-[]byte corpus file", path)
		}
		out = append(out, []byte(val))
	}
	return out
}

// FuzzSolveRepeat: any body POSTed three times to one engine's /solve
// gets the same status and bytes each time, equal to a fresh engine's
// answer; a 200 is answered from its stored bytes by the third send,
// and an error never leaves a body-cache entry. The caches are small,
// so entries and answers are evicted all the time.
func FuzzSolveRepeat(f *testing.F) {
	for _, body := range genBodies(f, 6) {
		f.Add(body)
	}
	for _, body := range fuzzCorpus(f, "testdata/fuzz/FuzzDecodeRequest") {
		f.Add(body)
	}
	cfg := Config{Workers: 2, CompiledCacheSize: 2, ResultCacheSize: 3, CacheShards: 2, MaxDemands: 40, MaxExactNodes: 5000}
	e := New(cfg)
	f.Cleanup(e.Close)
	h := e.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		fresh := New(cfg)
		want := postHandler(fresh.Handler(), body, "")
		fresh.Close()
		digest := sha256.Sum256(body)
		for send := 1; send <= 3; send++ {
			hits := e.Metrics().ResultBodyHits
			got := postHandler(h, body, "")
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("send %d: %d %.200s\nfresh engine: %d %.200s", send, got.Code, got.Body, want.Code, want.Body)
			}
			if got.Code != http.StatusOK {
				if _, ok := e.bodies.get(string(digest[:])); ok {
					t.Fatalf("send %d: a %d left a body-cache entry", send, got.Code)
				}
			} else if send == 3 && got.Body.Len() <= maxBodyEntryBytes && e.Metrics().ResultBodyHits != hits+1 {
				t.Fatal("the third send of an answered body was not a body hit")
			}
		}
	})
}
