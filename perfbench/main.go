// Command perfbench is the repository's end-to-end benchmark: it launches
// the schedserver binary with its shipped flag defaults and drives it
// over loopback HTTP from one client process, in a closed loop over two
// keep-alive connections, on one of three seeded workloads. See
// README.md for the workloads, metrics and layer predictions.
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	perfbench --server .bench_build/schedserver --workload memo-hit \
//	          --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"treesched/internal/service"
)

// setups is how many times a run launches and warms a server; setup_s is
// their median. The first one serves the measured phase, and the others
// run between its slices, so set-up time samples the host over the whole
// run, as the other metrics do, rather than one moment of it.
const setups = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: memo-hit, fresh-pair or session-churn")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same request bytes")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced replay")
		bin     = flag.String("server", ".bench_build/schedserver", "schedserver binary")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	res, err := run(*name, *seed, *seconds, *trace == 1, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// sliceDur is the traffic in one slice of the measured phase; a reference
// burst follows each.
const sliceDur = 500 * time.Millisecond

// measured is the untraced run of one workload.
type measured struct {
	w          *workload
	ph         phase
	cs         [conns]*conn
	setupTimes []float64
	cpuMs, rss float64
	m0, m1     service.MetricsSnapshot
}

// slowdown is how much slower than nominal the host ran during the
// measured phase: the median reference burst over refNominalNs. One
// factor per run is steadier than one per slice, which would carry every
// disturbed burst into its slice.
func (m *measured) slowdown() float64 {
	return median(m.ph.bursts) / refNominalNs
}

func run(name string, seed int64, seconds int, traced bool, bin string) (*result, error) {
	w, err := makeWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("schedserver binary: %w", err)
	}
	m, err := measure(w, seconds, bin)
	if err != nil {
		return nil, err
	}
	v := checkPhase(w, &m.ph, m.cs)
	attempted := 0
	for c := range m.ph.recs {
		attempted += len(m.ph.recs[c])
	}
	res := &result{Attempted: attempted, Failed: v.failed, Correct: v.failed == 0 && attempted > 0}
	for _, n := range v.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	e2e := endToEnd(m, attempted, m.slowdown())
	printTable(os.Stdout, name, seed, e2e, endToEnd(m, attempted, 1), m, attempted, v.failed)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	l, err := tracedRun(w, &m.ph, time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	res.Metrics = perLayer(l, m, v, attempted)
	printLayers(os.Stdout, l, res.Metrics)
	return res, nil
}

// measure launches and warms the server that serves the measured phase,
// scrapes it, runs the measured phase in slices with a reference burst
// and now and then another set-up between them, and scrapes it again.
// Scrapes and set-ups lie outside the measured window.
func measure(w *workload, seconds int, bin string) (*measured, error) {
	m := &measured{w: w}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	seed := maphash.MakeSeed()
	srv, cs, err := setup(w, bin, seed)
	if err != nil {
		return nil, err
	}
	m.setupTimes = append(m.setupTimes, time.Since(srv.start).Seconds())
	m.cs = cs
	defer srv.stop()
	defer func() {
		for _, c := range m.cs {
			c.close()
		}
	}()
	// extraSetup launches and warms one more server, then stops it.
	extraSetup := func() error {
		s, cs, err := setup(w, bin, seed)
		if err != nil {
			return err
		}
		m.setupTimes = append(m.setupTimes, time.Since(s.start).Seconds())
		for _, c := range cs {
			c.close()
		}
		s.stop()
		return nil
	}

	if m.m0, err = srv.metrics(); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuMs()
	if err != nil {
		return nil, err
	}
	window := time.Duration(seconds) * time.Second
	every := max(1, int(window/sliceDur)/setups)
	lp := newLoop(m.cs, w)
	burst := func() error {
		ns, err := ref.burst()
		lp.ph.bursts = append(lp.ph.bursts, ns)
		return err
	}
	if err := burst(); err != nil {
		return nil, err
	}
	for lp.ph.wallNs() < window.Nanoseconds() {
		ops, wall := lp.run(sliceDur)
		lp.ph.slices = append(lp.ph.slices, slice{ops: ops, wallNs: wall})
		if err := burst(); err != nil {
			return nil, err
		}
		if len(lp.ph.slices)%every == 0 && len(m.setupTimes) < setups {
			if err := extraSetup(); err != nil {
				return nil, err
			}
		}
	}
	m.ph = lp.ph
	cpu1, err := srv.cpuMs()
	if err != nil {
		return nil, err
	}
	m.cpuMs = cpu1 - cpu0
	for len(m.setupTimes) < setups {
		if err := extraSetup(); err != nil {
			return nil, err
		}
	}
	if m.m1, err = srv.metrics(); err != nil {
		return nil, err
	}
	if m.rss, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return m, nil
}

// setup launches a server, opens the connections (and sessions, in
// connection order) and sends every warm-up op.
func setup(w *workload, bin string, seed maphash.Seed) (*server, [conns]*conn, error) {
	var cs [conns]*conn
	s, err := startServer(bin)
	if err != nil {
		return nil, cs, err
	}
	fail := func(err error) (*server, [conns]*conn, error) {
		for _, c := range cs {
			if c != nil {
				c.close()
			}
		}
		s.stop()
		return nil, cs, err
	}
	for c := range cs {
		if cs[c], err = dial(s.addr, seed); err != nil {
			return fail(err)
		}
		if open := w.streams[c].open; open != nil {
			if err := cs[c].openSession(open); err != nil {
				return fail(err)
			}
		}
	}
	var recs [conns][]record
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs[c] = cs[c].runOnce(w.streams[c].warm)
		}(c)
	}
	wg.Wait()
	for c := range recs {
		for _, r := range recs[c] {
			for j := range w.streams[c].warm[r.idx].reqs {
				if r.err != nil || r.status[j] != 200 {
					return fail(fmt.Errorf("warm-up op %d on connection %d failed: status %d, %v", r.idx, c, r.status[j], r.err))
				}
			}
		}
	}
	return s, cs, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of sorted by the nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// latencies returns the ops' latencies in ns, sorted.
func latencies(ph *phase) []float64 {
	var lat []float64
	for c := range ph.recs {
		for _, r := range ph.recs[c] {
			if r.err == nil {
				lat = append(lat, float64(r.latNs))
			}
		}
	}
	slices.Sort(lat)
	return lat
}

// endToEnd computes the end-to-end metrics with every time divided by
// slowdown; a slowdown of 1 gives the raw figures.
func endToEnd(m *measured, attempted int, slowdown float64) map[string]metric {
	lat := latencies(&m.ph)
	ops := float64(attempted)
	ms := func(ns float64) float64 { return ns / 1e6 / slowdown }
	return map[string]metric{
		"throughput_ops_per_s": {ops / (float64(m.ph.wallNs()) / 1e9 / slowdown), "ops/s"},
		"latency_p50_ms":       {ms(nearestRank(lat, 0.50)), "ms"},
		"latency_p99_ms":       {ms(nearestRank(lat, 0.99)), "ms"},
		"server_cpu_ms_per_op": {m.cpuMs / slowdown / ops, "ms"},
		"server_peak_rss_mb":   {m.rss, "MB"},
		"setup_s":              {median(m.setupTimes) / slowdown, "s"},
	}
}

// ratio returns a/b, 0 when b is 0 (the layer saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perLayer(l *layers, m *measured, v verdict, attempted int) map[string]metric {
	d := func(f func(s *service.MetricsSnapshot) int64) float64 { return float64(f(&m.m1) - f(&m.m0)) }
	ops := float64(attempted)
	n := float64(l.ops)
	ns := func(v int64) metric { return metric{ratio(float64(v), n), "ns"} }
	share := func(v int64) metric { return metric{ratio(float64(v), float64(l.handler)), "fraction"} }
	resHits := d(func(s *service.MetricsSnapshot) int64 { return s.ResultHits })
	resMiss := d(func(s *service.MetricsSnapshot) int64 { return s.ResultMisses })
	cHits := d(func(s *service.MetricsSnapshot) int64 { return s.CompiledHits })
	cMiss := d(func(s *service.MetricsSnapshot) int64 { return s.CompiledMisses })
	inc := d(func(s *service.MetricsSnapshot) int64 { return s.SessionResolvesIncremental })
	full := d(func(s *service.MetricsSnapshot) int64 { return s.SessionResolvesFull })
	coalesced := d(func(s *service.MetricsSnapshot) int64 { return s.SolvesCoalesced + s.CompilesCoalesced })
	return map[string]metric{
		"traced.handler.ns_per_op":        ns(l.handler),
		"traced.unattributed_share":       share(l.handler - l.attributed()),
		"http.ns_per_op":                  {ratio(float64(l.client-l.handler), n), "ns"},
		"service.decode.ns_per_op":        ns(l.decode),
		"service.decode.bytes_per_op":     {ratio(float64(l.decodeBytes), n), "bytes"},
		"service.decode.share":            share(l.decode),
		"service.hash.ns_per_op":          ns(l.hash),
		"service.hash.share":              share(l.hash),
		"service.cache_check.ns_per_op":   ns(l.cacheCheck),
		"service.cache_check.share":       share(l.cacheCheck),
		"service.encode.ns_per_op":        ns(l.encode),
		"service.encode.bytes_per_op":     {ratio(float64(l.encodeBytes), n), "bytes"},
		"service.encode.share":            share(l.encode),
		"service.result_cache.hit_rate":   {ratio(resHits, resHits+resMiss), "fraction"},
		"service.compiled_cache.hit_rate": {ratio(cHits, cHits+cMiss), "fraction"},
		"service.coalesced_per_op":        {coalesced / ops, "count"},
		"core.compile.ns_per_op":          ns(l.compile),
		"core.compile.share":              share(l.compile),
		"model.decomp.ns_per_op":          ns(l.decomp),
		"model.layer.ns_per_op":           ns(l.layer),
		"model.path.ns_per_op":            ns(l.path),
		"model.index.ns_per_op":           ns(l.idx),
		"core.solve.ns_per_op":            ns(l.solve),
		"core.solve.share":                share(l.solve),
		"core.phase1.ns_per_op":           ns(l.phase1),
		"core.phase2.ns_per_op":           ns(l.phase2),
		"core.verify_lambda.ns_per_op":    ns(l.verifyL),
		"core.assemble.ns_per_op":         ns(l.assemble),
		"core.select.ns_per_op":           ns(l.sel),
		"dist.protocol.ns_per_op":         ns(l.protocol),
		"dist.rounds_per_op":              {float64(v.rounds) / ops, "count"},
		"dist.messages_per_op":            {float64(v.messages) / ops, "count"},
		"online.delta.ns_per_op":          ns(l.delta),
		"online.delta.share":              share(l.delta),
		"online.solve.ns_per_op":          ns(l.onlineSolve),
		"online.solve.share":              share(l.onlineSolve),
		"online.incremental_rate":         {ratio(inc, inc+full), "fraction"},
		"verify.ns_per_op":                ns(l.verify),
		"verify.share":                    share(l.verify),
		"engine.solve_ms_per_op":          {d(func(s *service.MetricsSnapshot) int64 { return s.SolveNanos }) / 1e6 / ops, "ms"},
		"engine.session_solve_ms_per_op":  {d(func(s *service.MetricsSnapshot) int64 { return s.SessionSolveNanos }) / 1e6 / ops, "ms"},
	}
}
