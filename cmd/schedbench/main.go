// Command schedbench regenerates the experiment tables of EXPERIMENTS.md:
// one experiment per quantitative claim of the paper (approximation
// bounds, round complexity, decomposition quality, ablations).
//
// Usage:
//
//	schedbench [-e all|E1|E2|...|E12] [-trials N] [-quick] [-seed S] [-o file]
//	schedbench -core [-quick] [-o BENCH_core.json | -check BENCH_core.json]
//	schedbench -online [-quick] [-o BENCH_online.json | -check BENCH_online.json]
//	schedbench -dist [-quick] [-o BENCH_dist.json | -check BENCH_dist.json |
//	                 -smoke line-100k]
//	schedbench -load [-quick] [-o BENCH_load.json | -check BENCH_load.json]
//
// The serving layer's cache regimes are measured end to end over HTTP
// by the separate perfbench module (see BENCHMARK.json). The -core mode
// benchmarks the solver itself — ns/solve and allocs/solve per
// scenario×algorithm, cold (fresh compile) and warm (compiled reuse) —
// plus the parallel-compile scale tier: serial vs full-width model
// builds with per-phase breakdowns (decomp/layer/path/index ns) on the
// scale presets, CompileBatch/SolveBatch vs the one-at-a-time loop, and
// the traced-vs-untraced telemetry overhead. The -online mode benchmarks
// the dynamic-session path: delta re-solve (core.Compiled.WithJobs) vs
// cold compile+solve per scenario × churn rate. The -dist mode
// benchmarks the BSP substrate: the sharded worker-pool engine vs the
// goroutine-per-processor anchor in alternating pairs, up to the
// 10^5-processor scale presets; -smoke runs one scale preset end to end
// on the pool engine. The -load mode drives the serving layer with
// open-loop traffic — Poisson and bursty arrivals over a Zipf-weighted
// scenario×algorithm mix with a dynamic-session share — reporting
// saturation rps, open-loop p50/p99 latency, singleflight coalescing and
// cache-hit rates, the sharded-vs-single-lock cache contention speedup
// and the flight recorder's overhead.
//
// Each of the four modes writes its BENCH_*.json report, or with -check
// gates a fresh measurement against the named baseline and prints one
// line per gate — PASS, FAIL, or INERT with the reason the gate did not
// engage on this run (another GOMAXPROCS than the baseline's, a quick
// run against a full baseline, too few cores) — and exits 1 on any FAIL.
// Allocation counts are gated per arm against the baseline (>25%
// regression fails); wall clock only as within-run ratios (tracing and
// recorder overhead, the pool-vs-blocking speedup) or as a ×4
// catastrophe backstop.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"treesched/internal/bench"
)

func main() {
	var (
		exp     = flag.String("e", "all", "experiment id (E1..E12) or 'all'")
		trials  = flag.Int("trials", 0, "trials per table cell (0 = default)")
		quick   = flag.Bool("quick", false, "shrink workloads for a fast pass")
		seed    = flag.Int64("seed", 1, "base RNG seed")
		out     = flag.String("o", "", "write output to file instead of stdout")
		coreRun = flag.Bool("core", false, "benchmark the solver cold path instead of E1-E12")
		online  = flag.Bool("online", false, "benchmark delta re-solve vs cold solve instead of E1-E12")
		distRun = flag.Bool("dist", false, "benchmark the BSP worker-pool engine vs the goroutine-per-processor anchor")
		loadRun = flag.Bool("load", false, "drive the serving layer with open-loop traffic and report latency/coalescing/contention")
		smoke   = flag.String("smoke", "", "with -dist: run one scale preset on the pool engine and print a summary")
		check   = flag.String("check", "", "with -core/-online/-dist/-load: compare against the named baseline and fail on regression")
	)
	flag.Parse()

	switch {
	case *coreRun:
		runReport(bench.CoreBench, bench.CheckCore, *quick, *out, *check)
		return
	case *online:
		runReport(bench.OnlineBench, bench.CheckOnline, *quick, *out, *check)
		return
	case *distRun && *smoke != "":
		line, err := bench.DistSmoke(*smoke)
		if err != nil {
			fail(err)
		}
		fmt.Println("schedbench:", line)
		return
	case *distRun:
		runReport(bench.DistBench, bench.CheckDist, *quick, *out, *check)
		return
	case *loadRun:
		runReport(bench.LoadBench, bench.CheckLoad, *quick, *out, *check)
		return
	}

	cfg := bench.Config{Seed: *seed, Trials: *trials, Quick: *quick}
	runners := map[string]func(bench.Config) *bench.Table{
		"E1":  bench.E1TreeUnitRatios,
		"E2":  bench.E2Rounds,
		"E3":  bench.E3Narrow,
		"E4":  bench.E4Arbitrary,
		"E5":  bench.E5LineUnit,
		"E6":  bench.E6LineArbitrary,
		"E7":  bench.E7Decomp,
		"E8":  bench.E8Steps,
		"E9":  bench.E9Sequential,
		"E10": bench.E10Capacitated,
		"E11": bench.E11DecompAblation,
		"E12": bench.E12StageAblation,
	}

	var tables []*bench.Table
	switch strings.ToLower(*exp) {
	case "all":
		tables = bench.All(cfg)
	default:
		run, ok := runners[strings.ToUpper(*exp)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; want E1..E12 or all\n", *exp)
			os.Exit(2)
		}
		tables = []*bench.Table{run(cfg)}
	}

	var b strings.Builder
	if *out != "" {
		which := "tables E1–E12, one per quantitative claim of the paper"
		if strings.ToLower(*exp) != "all" {
			which = "table " + strings.ToUpper(*exp)
		}
		fmt.Fprintf(&b, "# EXPERIMENTS\n\n")
		fmt.Fprintf(&b, "Experiment %s\n", which)
		fmt.Fprintf(&b, "(see DESIGN.md's per-experiment index). Generated — do not edit:\n\n")
		quickFlag := ""
		if *quick {
			quickFlag = " -quick"
		}
		fmt.Fprintf(&b, "    go run ./cmd/schedbench -e %s -trials %d -seed %d%s -o %s\n\n",
			*exp, *trials, *seed, quickFlag, *out)
	}
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	if *out == "" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runReport is the -core/-online/-dist/-load mode: measure, then either
// gate the report against the baseline file named by check — one line
// per gate, exit status 1 on any FAIL — or write it as indented JSON to
// out (stdout when out is empty).
func runReport[R any](measure func(quick bool) (*R, error), gate func(current, baseline *R) []bench.Gate, quick bool, out, check string) {
	report, err := measure(quick)
	if err != nil {
		fail(err)
	}
	if check != "" {
		raw, err := os.ReadFile(check)
		if err != nil {
			fail(err)
		}
		var baseline R
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fail(fmt.Errorf("parsing %s: %v", check, err))
		}
		var failed, inert int
		gates := gate(report, &baseline)
		for _, g := range gates {
			fmt.Println(g)
			switch {
			case g.Inert != "":
				inert++
			case g.Failed:
				failed++
			}
		}
		if failed > 0 {
			fail(fmt.Errorf("%d of %d gates failed against %s", failed, len(gates), check))
		}
		fmt.Printf("schedbench: %d gates passed, %d inert, against %s\n", len(gates)-inert, inert, check)
		return
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "schedbench:", err)
	os.Exit(1)
}
