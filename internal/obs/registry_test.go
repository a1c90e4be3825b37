package obs

import (
	"strings"
	"testing"

	"treesched/internal/obs/expfmttest"
)

func TestRegistryPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	req := r.Counter("sched_requests_total", "total requests")
	byAlgo := r.Counter("sched_requests_by_algo_total", "requests per algorithm",
		Label{Name: "algo", Value: "tree-unit"})
	weird := r.Counter("sched_weird_total", "label escaping",
		Label{Name: "path", Value: "a\\b\"c\nd"})
	inflight := r.Gauge("sched_in_flight", "in-flight requests")
	r.GaugeFunc("sched_uptime_seconds", "uptime", func() float64 { return 12.5 })
	lat := r.Histogram("sched_solve_latency_ns", "solve latency")

	req.Add(3)
	byAlgo.Inc()
	weird.Inc()
	inflight.Set(2)
	for i := int64(1); i <= 100; i++ {
		lat.Observe(i * 1000)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	fams, err := expfmttest.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	get := func(name string) *expfmttest.ExpoFamily {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing:\n%s", name, text)
		}
		if f.Help == "" || f.Type == "" {
			t.Fatalf("family %s lacks HELP/TYPE:\n%s", name, text)
		}
		return f
	}
	if f := get("sched_requests_total"); f.Type != "counter" || f.Samples[0].Value != 3 {
		t.Fatalf("requests family = %+v", f)
	}
	if f := get("sched_requests_by_algo_total"); f.Samples[0].Labels["algo"] != "tree-unit" {
		t.Fatalf("algo label = %+v", f.Samples[0])
	}
	if f := get("sched_weird_total"); f.Samples[0].Labels["path"] != "a\\b\"c\nd" {
		t.Fatalf("escaped label round-trip = %q", f.Samples[0].Labels["path"])
	}
	if f := get("sched_in_flight"); f.Type != "gauge" || f.Samples[0].Value != 2 {
		t.Fatalf("gauge family = %+v", f)
	}
	if f := get("sched_uptime_seconds"); f.Samples[0].Value != 12.5 {
		t.Fatalf("gauge func = %+v", f)
	}
	f := get("sched_solve_latency_ns")
	if f.Type != "summary" {
		t.Fatalf("histogram exposed as %q", f.Type)
	}
	var sawQ, sawSum, sawCount bool
	for _, s := range f.Samples {
		switch {
		case s.Name == "sched_solve_latency_ns_sum":
			sawSum = s.Value > 0
		case s.Name == "sched_solve_latency_ns_count":
			sawCount = s.Value == 100
		case s.Labels["quantile"] == "0.5":
			sawQ = true
			// p50 of 1k..100k ns should sit near 50k (within a bucket).
			if s.Value < 45_000 || s.Value > 55_000 {
				t.Fatalf("p50 = %v", s.Value)
			}
		}
	}
	if !sawQ || !sawSum || !sawCount {
		t.Fatalf("summary series incomplete:\n%s", text)
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad metric name", func() { r.Counter("9bad", "") })
	mustPanic("bad label name", func() { r.Counter("ok_total", "", Label{Name: "1x", Value: "v"}) })
	r.Counter("twice", "")
	mustPanic("kind clash", func() { r.Gauge("twice", "") })
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_type_line 5",                                     // sample without TYPE
		"# TYPE x widget\nx 1",                               // unknown type
		"# TYPE x counter\nx -1",                             // negative counter
		"# TYPE x counter\nx{l=\"unterminated} 1",            // bad quoting
		"# TYPE x counter\nx{l=\"v\"} notanumber",            // bad value
		"# TYPE x counter\nx 1\n# TYPE x counter\nx 2",       // duplicate TYPE
		"# TYPE x counter\nx{bad-label=\"v\"} 1",             // bad label name
		"# TYPE x counter\nx{l=\"a\",l=\"b\"} 1",             // duplicate label
		"# HELP x h\n# HELP x h2\n# TYPE x counter\nx 1",     // duplicate HELP
		"# TYPE x summary\nx{quantile=\"0.5\"} 1\nx_sum bad", // bad sum value
	}
	for _, text := range bad {
		if _, err := expfmttest.ParseExposition(strings.NewReader(text)); err == nil {
			t.Fatalf("accepted malformed exposition:\n%s", text)
		}
	}
	// And a legal corner: bare comments, timestamps, empty label set text.
	ok := "# scrape note\n# TYPE y gauge\ny{a=\"b\\\"c\"} 2.5 1700000000\n"
	fams, err := expfmttest.ParseExposition(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("rejected legal exposition: %v", err)
	}
	if fams["y"].Samples[0].Labels["a"] != `b"c` {
		t.Fatalf("escape handling = %+v", fams["y"].Samples[0])
	}
}

func TestExpoSampleKeyStable(t *testing.T) {
	a := expfmttest.ExpoSample{Name: "m", Labels: map[string]string{"b": "2", "a": "1"}}
	b := expfmttest.ExpoSample{Name: "m", Labels: map[string]string{"a": "1", "b": "2"}}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if c := (expfmttest.ExpoSample{Name: "m"}); c.Key() != "m" {
		t.Fatalf("unlabeled key = %q", c.Key())
	}
}
