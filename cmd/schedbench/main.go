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
// scale presets, and CompileBatch/SolveBatch vs the one-at-a-time loop.
// With -check it fails on a >25% cold-path regression against the
// checked-in baseline, and on ≥4-core runners additionally requires a
// ≥2x parallel-compile speedup on at least one scale preset (and no
// >25% speedup slide against a multicore baseline). The -online mode
// benchmarks the dynamic-session
// path: delta re-solve (core.Compiled.WithJobs) vs cold compile+solve
// per scenario × churn rate, gating the speedups with -check. The -dist
// mode benchmarks the BSP substrate: the sharded worker-pool engine vs
// the goroutine-per-processor anchor, up to the 10^5-processor scale
// presets, gating speedup and the workers+O(1) goroutine bound with
// -check; -smoke runs one scale preset end to end on the pool engine.
// The -load mode drives the serving layer with open-loop traffic —
// Poisson and bursty arrivals over a Zipf-weighted scenario×algorithm
// mix with a dynamic-session share — reporting saturation rps,
// open-loop p50/p99 latency, singleflight coalescing and cache-hit
// rates, and the sharded-vs-single-lock cache contention speedup;
// -check gates report sanity and (GOMAXPROCS-matched) p99/saturation
// regressions against the checked-in BENCH_load.json.
package main

import (
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

	if *coreRun {
		runCoreBaseline(*out, *check, *quick)
		return
	}
	if *online {
		runOnlineBaseline(*out, *check, *quick)
		return
	}
	if *distRun {
		runDistBaseline(*out, *check, *smoke, *quick)
		return
	}
	if *loadRun {
		runLoadBaseline(*out, *check, *quick)
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
