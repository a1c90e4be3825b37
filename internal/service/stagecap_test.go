package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestNarrowStageCapOverHTTP: a two-demand narrow body at height 1e-12
// (about 10¹³ stages per epoch) or 1e-17 (where ξ rounds to 1 and ξ^b
// never reaches ε) gets a 400 through Handler() within a second, and no
// worker stays held.
func TestNarrowStageCapOverHTTP(t *testing.T) {
	e := New(Config{Workers: 1})
	h := e.Handler()
	for _, height := range []string{"1e-12", "1e-17"} {
		body := `{"algo":"narrow","problem":{"kind":"tree","num_vertices":4,"tree_edges":[[[1,0],[2,1],[3,1]]],` +
			`"demands":[{"id":0,"u":2,"v":3,"profit":1,"height":` + height + `,"access":[0]},` +
			`{"id":1,"u":0,"v":2,"profit":2,"height":` + height + `,"access":[0]}]}}`
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(body)))
			done <- rec
		}()
		select {
		case rec := <-done:
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "stages per epoch") {
				t.Fatalf("height %s: status %d: %s", height, rec.Code, rec.Body)
			}
		case <-time.After(time.Second):
			t.Fatalf("height %s: no answer after a second", height)
		}
		if n := e.Metrics().InFlight; n != 0 {
			t.Fatalf("height %s: %d workers still held", height, n)
		}
	}
	e.Close() // not deferred: Close would wait on a solve that never ends
}
