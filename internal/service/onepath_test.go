package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"treesched/internal/online"
)

// TestSessionOpenOverLimitGeneratesNothing: a POST /session whose
// scenario params ask for more demands than the engine's limit gets
// /solve's 400 before the scenario is generated, so the refusal
// allocates next to nothing. Generating the 10⁵ sensor-tree demands
// first would allocate about 45 MB.
func TestSessionOpenOverLimitGeneratesNothing(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	h := e.Handler()
	const body = `{"algo":"tree-unit","scenario":"sensor-tree","scenario_params":{"demands":100000}}`
	send := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/session", strings.NewReader(body)))
		return rec
	}
	send() // one-time initialization is not the refusal's cost

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := send()
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "100000 demands exceeds the limit 20000") {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
		t.Fatalf("the refused open allocated %d B, want under 256 KiB", alloc)
	}
	if n := e.Metrics().SessionsOpened; n != 0 {
		t.Fatalf("%d sessions opened", n)
	}
}

// TestSessionResolveRejectsAtSlotWait: a session resolve, a schedule
// read or a resolve event, whose context expires while the only worker
// slot is held returns the context's error and logs a reject event under
// its request id, as a /solve leader does. A /solve parked on the
// compile gate holds the slot.
func TestSessionResolveRejectsAtSlotWait(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	info, err := e.OpenSession(&SessionRequest{Algo: "tree-unit", Scenario: "caterpillar-backbone", ScenarioSeed: 1})
	if err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // before Close drains the parked solve, should a check fail
	e.compileGate = func(string) {
		close(parked)
		<-release
	}
	solved := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), &Request{Algo: "greedy", Scenario: "sensor-tree", ScenarioSeed: 3})
		solved <- err
	}()
	<-parked

	for _, c := range []struct {
		id      string
		resolve func(ctx context.Context) error
	}{
		{"slot-wait-schedule", func(ctx context.Context) error {
			_, err := e.SessionSchedule(ctx, info.SessionID)
			return err
		}},
		{"slot-wait-event", func(ctx context.Context) error {
			_, err := e.SessionEvents(ctx, info.SessionID, []online.Event{{Op: online.OpResolve}})
			return err
		}},
	} {
		ctx, cancel := context.WithTimeout(WithRequestID(context.Background(), c.id), 20*time.Millisecond)
		err := c.resolve(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: err = %v, want the context's deadline error", c.id, err)
		}
		rejected := false
		for _, ev := range e.Recorder().Events(0) {
			rejected = rejected || (ev.Type == "reject" && ev.ID == c.id)
		}
		if !rejected {
			t.Fatalf("%s: no reject event in %+v", c.id, e.Recorder().Events(0))
		}
		if rec, ok := e.Recorder().Lookup(c.id); !ok || rec.Error == "" {
			t.Fatalf("%s: record %+v (found %t), want its error", c.id, rec, ok)
		}
	}

	unpark()
	if err := <-solved; err != nil {
		t.Fatal(err)
	}
	if _, err := e.SessionSchedule(context.Background(), info.SessionID); err != nil {
		t.Fatalf("schedule after the slot freed: %v", err)
	}
}
