package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// printTable writes the human-readable end-to-end report: the metrics
// scaled to the reference speed and raw, the latency sample count beside
// the percentiles, the error rate, every slice and the /metrics deltas of
// the measured phase.
func printTable(out io.Writer, name string, seed int64, e2e, raw map[string]metric, m *measured, attempted, failed int) {
	lat := latencies(&m.ph)
	fmt.Fprintf(out, "workload %s  seed %d  connections %d  measured %.2fs in %d slices  setups %d\n",
		name, seed, conns, float64(m.ph.wallNs())/1e9, len(m.ph.slices), setups)
	fmt.Fprintf(out, "  slowdown %.4f (median reference burst over nominal)\n", m.slowdown())
	fmt.Fprintf(out, "  %-24s %12s %12s\n", "", "scaled", "raw")
	for _, k := range sortedKeys(e2e) {
		extra := ""
		if strings.HasPrefix(k, "latency_") {
			extra = fmt.Sprintf("  (n=%d)", len(lat))
		}
		fmt.Fprintf(out, "  %-24s %12.4f %12.4f %-6s%s\n", k, e2e[k].Value, raw[k].Value, e2e[k].Unit, extra)
	}
	fmt.Fprintf(out, "  raw latency ms p10 %.3f  p25 %.3f  p50 %.3f  p75 %.3f  p90 %.3f  p99 %.3f  max %.3f\n",
		nearestRank(lat, 0.10)/1e6, nearestRank(lat, 0.25)/1e6, nearestRank(lat, 0.50)/1e6,
		nearestRank(lat, 0.75)/1e6, nearestRank(lat, 0.90)/1e6, nearestRank(lat, 0.99)/1e6, nearestRank(lat, 1)/1e6)
	fmt.Fprintf(out, "  %-24s %12.4f %-6s  (%d failed of %d attempted)\n", "error_rate", ratio(float64(failed), float64(attempted)), "", failed, attempted)
	var rate, refMs []string
	for _, s := range m.ph.slices {
		rate = append(rate, fmt.Sprintf("%.0f", float64(s.ops)/(float64(s.wallNs)/1e9)))
	}
	for _, b := range m.ph.bursts {
		refMs = append(refMs, fmt.Sprintf("%.1f", b/1e6))
	}
	fmt.Fprintf(out, "  raw ops/s per slice: %s\n", strings.Join(rate, " "))
	fmt.Fprintf(out, "  reference bursts ms: %s (nominal %.1f)\n", strings.Join(refMs, " "), refNominalNs/1e6)
	fmt.Fprintf(out, "  set-up seconds: %.4f\n", m.setupTimes)
	d0, d1 := m.m0, m.m1
	fmt.Fprintf(out, "  /metrics deltas: requests %d  result hits/misses %d/%d  compiled hits/misses %d/%d  coalesced solves/compiles %d/%d\n",
		d1.Requests-d0.Requests, d1.ResultHits-d0.ResultHits, d1.ResultMisses-d0.ResultMisses,
		d1.CompiledHits-d0.CompiledHits, d1.CompiledMisses-d0.CompiledMisses,
		d1.SolvesCoalesced-d0.SolvesCoalesced, d1.CompilesCoalesced-d0.CompilesCoalesced)
	fmt.Fprintf(out, "  /metrics deltas: session resolves incremental/full/cached %d/%d/%d  solve_nanos %d  session_solve_nanos %d\n",
		d1.SessionResolvesIncremental-d0.SessionResolvesIncremental, d1.SessionResolvesFull-d0.SessionResolvesFull,
		d1.SessionResolvesCached-d0.SessionResolvesCached, d1.SolveNanos-d0.SolveNanos, d1.SessionSolveNanos-d0.SessionSolveNanos)
}

// printLayers writes the traced run's per-layer table: ns/op and share of
// handler time for every layer, then the counts and rates.
func printLayers(out io.Writer, l *layers, pl map[string]metric) {
	fmt.Fprintf(out, "traced replay: %d ops, handler %.0f ns/op, client %.0f ns/op\n",
		l.ops, pl["traced.handler.ns_per_op"].Value, ratio(float64(l.client), float64(l.ops)))
	for _, name := range []string{"service.decode", "service.hash", "service.cache_check", "core.compile",
		"core.solve", "online.delta", "online.solve", "verify", "service.encode"} {
		fmt.Fprintf(out, "  %-22s %12.0f ns/op  %6.1f%%\n", name, pl[name+".ns_per_op"].Value, 100*pl[name+".share"].Value)
	}
	fmt.Fprintf(out, "  %-22s %12s        %6.1f%%\n", "unattributed", "", 100*pl["traced.unattributed_share"].Value)
	if l.encodeMismatch > 0 {
		fmt.Fprintf(out, "  note: %d re-encoded responses differ from the handler's bytes\n", l.encodeMismatch)
	}
	for _, k := range sortedKeys(pl) {
		fmt.Fprintf(out, "  %-38s %14.4f %s\n", k, pl[k].Value, pl[k].Unit)
	}
}

func sortedKeys(m map[string]metric) []string { return slices.Sorted(maps.Keys(m)) }
