package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"treesched/internal/obs/expfmttest"
	"treesched/internal/online"
)

// scrapeProm fetches /metrics.prom and runs it through the strict
// in-repo exposition parser, so any grammar drift in WritePrometheus
// fails here rather than in a real scraper.
func scrapeProm(t *testing.T, url string) map[string]*expfmttest.ExpoFamily {
	t.Helper()
	resp, err := http.Get(url + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.prom status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	fams, err := expfmttest.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return fams
}

// flatten indexes every sample of every family by its Key().
func flatten(fams map[string]*expfmttest.ExpoFamily) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Key()] = s.Value
		}
	}
	return out
}

// TestPrometheusExpositionContract is the /metrics.prom contract test:
// the exposition parses under the strict v0.0.4 grammar, every expected
// family is present with HELP and TYPE, counters are monotone across
// scrapes, and the exposition agrees with the JSON snapshot it shares
// instruments with.
func TestPrometheusExpositionContract(t *testing.T) {
	e, srv := newTestServer(t)

	before := flatten(scrapeProm(t, srv.URL))

	// Drive solve traffic: two distinct solves plus two repeats (cache
	// hits, the second answered from the body's stored bytes) and one
	// error.
	postJSON(t, srv.URL+"/solve", `{"algo":"greedy","scenario":"sensor-tree","scenario_seed":1}`)
	postJSON(t, srv.URL+"/solve", `{"algo":"line-unit","scenario":"videowall-line","scenario_seed":2,"seed":1}`)
	postJSON(t, srv.URL+"/solve", `{"algo":"greedy","scenario":"sensor-tree","scenario_seed":1}`)
	postJSON(t, srv.URL+"/solve", `{"algo":"greedy","scenario":"sensor-tree","scenario_seed":1}`)
	postJSON(t, srv.URL+"/solve", `{"algo":"nope","scenario":"sensor-tree"}`)

	fams := scrapeProm(t, srv.URL)
	for _, want := range []struct {
		family string
		typ    string
	}{
		{"sched_requests_total", "counter"},
		{"sched_errors_total", "counter"},
		{"sched_result_cache_hits_total", "counter"},
		{"sched_result_cache_misses_total", "counter"},
		{"sched_result_cache_body_hits_total", "counter"},
		{"sched_compiled_cache_hits_total", "counter"},
		{"sched_compiled_cache_misses_total", "counter"},
		{"sched_solve_nanos_total", "counter"},
		{"sched_in_flight", "gauge"},
		{"sched_requests_by_algo_total", "counter"},
		{"sched_session_resolve_modes_total", "counter"},
		{"sched_solve_latency_ns", "summary"},
		{"sched_session_solve_latency_ns", "summary"},
		{"sched_compiled_cache_entries", "gauge"},
		{"sched_result_cache_entries", "gauge"},
		{"sched_sessions_open", "gauge"},
		{"sched_uptime_seconds", "gauge"},
		{"sched_request_decode_fallback_total", "counter"},
		{"sched_session_event_decode_fallback_total", "counter"},
	} {
		f := fams[want.family]
		if f == nil {
			t.Fatalf("family %s missing from exposition", want.family)
		}
		if f.Type != want.typ {
			t.Errorf("family %s has type %q, want %q", want.family, f.Type, want.typ)
		}
		if f.Help == "" {
			t.Errorf("family %s has no HELP line", want.family)
		}
		if len(f.Samples) == 0 {
			t.Errorf("family %s exposes no samples", want.family)
		}
	}

	// Counter monotonicity: no counter sample may decrease across scrapes.
	after := flatten(fams)
	for _, f := range fams {
		if f.Type != "counter" {
			continue
		}
		for _, s := range f.Samples {
			if prev, ok := before[s.Key()]; ok && s.Value < prev {
				t.Errorf("counter %s went backwards: %g -> %g", s.Key(), prev, s.Value)
			}
		}
	}

	// Cross-check against the JSON snapshot: same instruments, same
	// values (both reads are quiesced — no in-flight traffic).
	snap := e.Metrics()
	for key, want := range map[string]int64{
		"sched_requests_total":                          snap.Requests,
		"sched_errors_total":                            snap.Errors,
		"sched_result_cache_hits_total":                 snap.ResultHits,
		"sched_result_cache_misses_total":               snap.ResultMisses,
		"sched_result_cache_body_hits_total":            snap.ResultBodyHits,
		"sched_requests_by_algo_total{algo=\"greedy\"}": snap.ByAlgo["greedy"],
		"sched_solve_latency_ns_count":                  snap.SolveLatency.Count,
		"sched_request_decode_fallback_total":           snap.RequestDecodeFallbacks,
		"sched_session_event_decode_fallback_total":     snap.SessionEventDecodeFallbacks,
	} {
		if got := after[key]; got != float64(want) {
			t.Errorf("%s = %g in exposition, %d in JSON snapshot", key, got, want)
		}
	}
	if snap.Requests != 5 || snap.Errors != 1 || snap.ResultHits != 2 || snap.ResultMisses != 2 || snap.ResultBodyHits != 1 {
		t.Errorf("unexpected traffic accounting: %+v", snap)
	}
	if after["sched_solve_latency_ns{quantile=\"0.99\"}"] <= 0 {
		t.Error("solve latency p99 not exposed after solves")
	}
}

// TestMetricsJSONSessionFields pins the session-side additions to the
// JSON snapshot: under session-only traffic MeanSolveMillis stays 0 (no
// /solve misses) while MeanSessionSolveMillis and the session latency
// summary populate — the split the field comments in metrics.go promise.
func TestMetricsJSONSessionFields(t *testing.T) {
	e, srv := newTestServer(t)

	resp, err := http.Post(srv.URL+"/session", "application/json",
		strings.NewReader(`{"algo":"line-unit","scenario":"videowall-line","scenario_seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	decodeBody(t, resp, http.StatusOK, &info)

	jobs := sessionJobs(3, 17)
	var b strings.Builder
	for i := range jobs {
		line, _ := json.Marshal(online.Event{Op: online.OpAdd, Job: &jobs[i]})
		b.Write(line)
		b.WriteByte('\n')
	}
	resp, err = http.Post(srv.URL+"/session/"+info.SessionID+"/events",
		"application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var evRes SessionEventsResult
	decodeBody(t, resp, http.StatusOK, &evRes)

	// Events only stage; the resolve (and its latency observation)
	// happens when the schedule is fetched.
	sresp, err := http.Get(srv.URL + "/session/" + info.SessionID + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("schedule status %d", sresp.StatusCode)
	}

	snap := e.Metrics()
	solved := snap.SessionResolvesIncremental + snap.SessionResolvesFull
	if solved == 0 {
		t.Fatalf("no session resolves recorded: %+v", snap)
	}
	if snap.MeanSolveMillis != 0 || snap.SolveNanos != 0 {
		t.Errorf("session traffic leaked into /solve accounting: mean=%g nanos=%d",
			snap.MeanSolveMillis, snap.SolveNanos)
	}
	if snap.MeanSessionSolveMillis <= 0 {
		t.Errorf("mean_session_solve_millis = %g under session traffic", snap.MeanSessionSolveMillis)
	}
	if snap.SessionSolveLatency.Count != snap.SessionResolves {
		t.Errorf("session latency histogram saw %d resolves, counters say %d",
			snap.SessionSolveLatency.Count, snap.SessionResolves)
	}
	wantMean := float64(snap.SessionSolveNanos) / float64(solved) / 1e6
	if diff := snap.MeanSessionSolveMillis - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean_session_solve_millis = %g, want %g", snap.MeanSessionSolveMillis, wantMean)
	}

	// The JSON document keeps its historical key set: decode the raw body
	// and check the pre-existing keys are all present (byte-compat for
	// existing consumers) alongside the new ones.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	decodeBody(t, mresp, http.StatusOK, &raw)
	for _, key := range []string{
		"requests", "errors", "result_cache_hits", "result_cache_misses",
		"compiled_cache_hits", "compiled_cache_misses", "in_flight",
		"solve_nanos_total", "mean_solve_millis", "solve_latency",
		"compiled_cache_entries", "result_cache_entries",
		"sessions_open", "sessions_opened", "sessions_closed", "sessions_evicted",
		"session_events", "session_resolves", "session_resolves_incremental",
		"session_resolves_full", "session_resolves_cached",
		"session_solve_nanos_total", "mean_session_solve_millis",
		"session_solve_latency", "requests_by_algo", "algo_names",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/metrics JSON missing key %q", key)
		}
	}
}
