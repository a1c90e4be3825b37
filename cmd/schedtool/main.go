// Command schedtool generates, solves and verifies scheduling problems as
// JSON, exposing the full library from the command line.
//
// Usage:
//
//	schedtool gen  -kind tree|line [-n 32] [-nets 2] [-demands 20] [-unit]
//	               [-hmin 0.1] [-hmax 1] [-cap 0] [-seed 1] [-o problem.json]
//	schedtool gen  -scenario videowall-line [-seed 1] [-o problem.json]
//	               (named presets; see `schedtool scenarios`; explicit
//	               -n/-nets/-demands flags override the preset sizing)
//	schedtool solve -algo tree-unit|line-unit|arbitrary|narrow|sequential|
//	                     exact|greedy|ps|dist-unit|dist-narrow|dist-ps
//	               [-eps 0.25] [-seed 1] [-o result.json]
//	               [-trace-out timeline.json] < problem.json
//	               (-trace-out writes the solve's phase timeline — compile,
//	               phase1 epochs, verify, phase2 — as telemetry JSON;
//	               the solver output is byte-identical with or without it)
//	schedtool verify -solution sol.json < problem.json
//	schedtool scenarios
//	schedtool trace  -scenario videowall-line [-seed 1] [-churn 0.1]
//	               [-batches 20] [-o trace.ndjson]
//	               (deterministic arrival/departure event stream for the
//	               online-session subsystem)
//	schedtool replay -trace trace.ndjson [-o outcomes.ndjson] [-q]
//	               (drive a trace through a dynamic session with delta
//	               recompilation; deterministic outcome NDJSON on stdout,
//	               per-event latency summary on stderr)
//
// Exit codes: 0 success, 1 operational error, 2 usage error,
// 3 infeasible solution (solve self-check or verify failure) — so the
// tool composes in scripts and CI.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"treesched"
	"treesched/internal/conflict"
	"treesched/internal/core"
	"treesched/internal/model"
	"treesched/internal/obs"
)

// exitInfeasible is the dedicated exit code for verification failures,
// distinct from operational errors (1) and usage errors (2).
const exitInfeasible = 3

// newFlagSet builds a subcommand FlagSet that reports bad flags through
// the documented exit-code contract instead of letting the flag package
// exit on its own: ContinueOnError hands the error back to parseFlags,
// which exits 2 (usage) with the subcommand's usage text — and 0 for an
// explicit -h/-help, which is a successful help request, not an error.
// flag.ExitOnError would exit 2 directly, bypassing main's control of
// the contract (and any future cleanup around it); every subcommand
// must build its FlagSet here so the contract stays pinned in one place
// (and in TestExitCodes).
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// parseFlags applies the exit-code contract to a Parse result.
func parseFlags(fs *flag.FlagSet, args []string) {
	err := fs.Parse(args)
	if err == nil {
		return
	}
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	// flag already printed the error and usage to fs.Output (stderr).
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "solve":
		cmdSolve(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "scenarios":
		cmdScenarios()
	case "trace":
		cmdTrace(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: schedtool gen|solve|verify|stats|scenarios|trace|replay [flags]")
	os.Exit(2)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "schedtool:", err)
	os.Exit(1)
}

func dieInfeasible(err error) {
	fmt.Fprintln(os.Stderr, "schedtool:", err)
	os.Exit(exitInfeasible)
}

// writeOutput writes JSON to -o's file, or stdout when path is empty.
func writeOutput(path string, v any) {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			die(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				die(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		die(err)
	}
}

func cmdGen(args []string) {
	fs := newFlagSet("gen")
	kind := fs.String("kind", "tree", "tree or line")
	scen := fs.String("scenario", "", "generate a named preset instead (see `schedtool scenarios`)")
	n := fs.Int("n", 32, "vertices (tree) or timeslots (line)")
	nets := fs.Int("nets", 2, "number of networks/resources")
	demands := fs.Int("demands", 20, "number of demands")
	unit := fs.Bool("unit", false, "unit heights")
	hmin := fs.Float64("hmin", 0.1, "min height")
	hmax := fs.Float64("hmax", 1.0, "max height")
	capac := fs.Float64("cap", 0, "edge capacity (0 = uniform 1)")
	jitter := fs.Float64("jitter", 0, "capacity jitter")
	seed := fs.Int64("seed", 1, "rng seed")
	out := fs.String("o", "", "write output to file instead of stdout")
	parseFlags(fs, args)

	var p *treesched.Problem
	if *scen != "" {
		s, ok := treesched.LookupScenario(*scen)
		if !ok {
			die(fmt.Errorf("unknown scenario %q; run `schedtool scenarios` for the list", *scen))
		}
		// Explicitly set sizing flags override the preset defaults; the
		// remaining generation flags are fixed by the preset, so passing
		// them is an error rather than a silent no-op — as is an explicit
		// zero, which Params would otherwise read as "use the default".
		var params treesched.ScenarioParams
		var rejected []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "n":
				params.Size = *n
			case "nets":
				params.Networks = *nets
			case "demands":
				params.Demands = *demands
			case "kind", "unit", "hmin", "hmax", "cap", "jitter":
				rejected = append(rejected, "-"+f.Name)
			}
			if (f.Name == "n" || f.Name == "nets" || f.Name == "demands") && f.Value.String() == "0" {
				die(fmt.Errorf("-%s 0 is not a valid override for -scenario (omit the flag to use the preset default)", f.Name))
			}
		})
		if len(rejected) > 0 {
			die(fmt.Errorf("flags %v have no effect with -scenario (the preset fixes them); only -n/-nets/-demands/-seed apply", rejected))
		}
		var err error
		p, err = s.Generate(params, *seed)
		if err != nil {
			die(err)
		}
		writeOutput(*out, p)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	switch *kind {
	case "tree":
		p = treesched.GenerateTreeProblem(treesched.TreeWorkload{
			N: *n, Trees: *nets, Demands: *demands, Unit: *unit,
			HMin: *hmin, HMax: *hmax, Capacity: *capac, CapJitter: *jitter,
		}, rng)
	case "line":
		p = treesched.GenerateLineProblem(treesched.LineWorkload{
			Slots: *n, Resources: *nets, Demands: *demands, Unit: *unit,
			HMin: *hmin, HMax: *hmax, Capacity: *capac, CapJitter: *jitter,
		}, rng)
	default:
		die(fmt.Errorf("unknown kind %q", *kind))
	}
	writeOutput(*out, p)
}

// cmdScenarios lists the preset library.
func cmdScenarios() {
	for _, s := range treesched.Scenarios() {
		fmt.Printf("%-22s %-6s algo=%-11s m=%d  %s\n",
			s.Name, s.KindName, s.DefaultAlgo, s.Defaults.Demands, s.Doc)
	}
}

// solveOutput is the JSON result envelope.
type solveOutput struct {
	Algorithm      string               `json:"algorithm"`
	Profit         float64              `json:"profit"`
	DualUpperBound float64              `json:"dual_upper_bound,omitempty"`
	CertifiedRatio float64              `json:"certified_ratio,omitempty"`
	Bound          float64              `json:"bound,omitempty"`
	Selected       []treesched.Instance `json:"selected"`
	Rounds         int                  `json:"rounds,omitempty"`
	Messages       int64                `json:"messages,omitempty"`
	Aggregations   int                  `json:"aggregations,omitempty"`
	PayloadEntries int64                `json:"payload_entries,omitempty"`
	// StepsPerStage[k][j] is the first-phase execution profile (with
	// -trace): while-loop iterations of stage j+1 in epoch k+1.
	StepsPerStage [][]int `json:"steps_per_stage,omitempty"`
	RaiseEvents   int     `json:"raise_events,omitempty"`
	MISPhases     int     `json:"mis_phases,omitempty"`
}

func cmdSolve(args []string) {
	fs := newFlagSet("solve")
	algo := fs.String("algo", "arbitrary", "algorithm")
	eps := fs.Float64("eps", 0.25, "epsilon")
	seed := fs.Uint64("seed", 1, "MIS priority seed")
	fixed := fs.Bool("fixed", false, "fixed-rounds schedule for dist-* algorithms")
	trace := fs.Bool("trace", false, "include the first-phase execution profile")
	out := fs.String("o", "", "write output to file instead of stdout")
	traceOut := fs.String("trace-out", "", "write the solve's phase-timeline telemetry JSON to this file")
	parseFlags(fs, args)

	p := readProblem(os.Stdin)
	// tel stays nil without -trace-out: the telemetry hooks in core are
	// nil-safe no-ops, so the default path does zero observability work.
	var tel *obs.Trace
	if *traceOut != "" {
		tel = obs.NewTrace()
	}
	opts := treesched.Options{Epsilon: *eps, Seed: *seed, FixedRounds: *fixed, CollectTrace: *trace, Telemetry: tel}
	res, net, err := core.Solve(p, *algo, opts)
	if err != nil {
		die(err)
	}
	vsp := tel.Begin("verify_solution")
	verr := treesched.VerifySolution(p, res.Selected)
	tel.End(vsp)
	if verr != nil {
		dieInfeasible(fmt.Errorf("solver emitted infeasible solution: %w", verr))
	}
	sol := solveOutput{
		Algorithm:      res.Name,
		Profit:         res.Profit,
		DualUpperBound: res.DualUB,
		CertifiedRatio: res.CertifiedRatio,
		Bound:          res.Bound,
		Selected:       res.Selected,
	}
	if net != nil {
		sol.Rounds = net.Rounds
		sol.Messages = net.Messages
		sol.Aggregations = net.Aggregations
		sol.PayloadEntries = net.Entries
	}
	if res.Trace != nil {
		sol.StepsPerStage = res.Trace.StepsPerStage
		sol.RaiseEvents = len(res.Trace.Events)
		sol.MISPhases = res.Trace.MISPhases
	}
	writeOutput(*out, sol)
	if tel != nil {
		writeOutput(*traceOut, tel.Export())
	}
}

func cmdVerify(args []string) {
	fs := newFlagSet("verify")
	solPath := fs.String("solution", "", "path to a solve output JSON")
	parseFlags(fs, args)
	if *solPath == "" {
		die(fmt.Errorf("verify needs -solution"))
	}
	p := readProblem(os.Stdin)
	data, err := os.ReadFile(*solPath)
	if err != nil {
		die(err)
	}
	var sol solveOutput
	if err := json.Unmarshal(data, &sol); err != nil {
		die(err)
	}
	if err := treesched.VerifySolution(p, sol.Selected); err != nil {
		dieInfeasible(err)
	}
	fmt.Printf("feasible: %d demands scheduled, profit %.3f\n", len(sol.Selected), sol.Profit)
}

func cmdStats(args []string) {
	fs := newFlagSet("stats")
	parseFlags(fs, args)
	p := readProblem(os.Stdin)
	m, err := model.Build(p, model.Options{})
	if err != nil {
		die(err)
	}
	fmt.Printf("kind:          %v\n", p.Kind)
	fmt.Printf("networks:      %d\n", p.NumNetworks())
	fmt.Printf("demands:       %d\n", len(p.Demands))
	fmt.Printf("instances:     %d\n", len(m.Insts))
	fmt.Printf("edge space:    %d\n", m.EdgeSpace)
	fmt.Printf("layer groups:  %d\n", m.NumGroups)
	fmt.Printf("critical ∆:    %d\n", m.Delta)
	pmin, pmax := p.ProfitRange()
	fmt.Printf("profit spread: %.3g (%.3g..%.3g)\n", pmax/pmin, pmin, pmax)
	hmin, hmax := p.HeightRange()
	fmt.Printf("heights:       %.3g..%.3g (unit=%v)\n", hmin, hmax, p.UnitHeight())
	cg := conflict.Build(m)
	edges := 0
	maxDeg := 0
	for i := int32(0); int(i) < cg.N; i++ {
		edges += cg.Degree(i)
		if cg.Degree(i) > maxDeg {
			maxDeg = cg.Degree(i)
		}
	}
	fmt.Printf("conflicts:     %d edges, max degree %d\n", edges/2, maxDeg)
	for q, d := range m.Decomps {
		fmt.Printf("tree %d:        ideal decomposition depth %d, θ=%d\n", q, d.MaxDepth(), d.PivotSize())
	}
}

func readProblem(r io.Reader) *treesched.Problem {
	data, err := io.ReadAll(r)
	if err != nil {
		die(err)
	}
	var p treesched.Problem
	if err := json.Unmarshal(data, &p); err != nil {
		die(err)
	}
	return &p
}
