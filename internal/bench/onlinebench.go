package bench

// The online benchmark behind `schedbench -online`: BENCH_core.json
// tracks the one-shot solver, this harness tracks the dynamic-session
// path — per scenario × churn rate, the cost of keeping a schedule fresh
// as jobs arrive and depart. Two arms replay the identical churn
// sequence: the delta arm re-solves through core.Compiled.WithJobs
// (incremental model rebuild, decomposition reuse, scratch adoption),
// the cold arm recompiles the effective problem from scratch each step —
// the regime a session-less service lives in. The speedup columns are
// the subsystem's reason to exist; CheckOnline gates each arm's
// hardware-independent allocation count in CI.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"

	"treesched/internal/core"
	"treesched/internal/instance"
	"treesched/internal/scenario"
)

// OnlinePairs lists the tracked (scenario, algorithm) combinations: the
// BENCH_core set minus the distributed driver (whose cost is
// message-passing, not compilation), plus two more tree workloads so the
// report spans the full range of solve-to-compile ratios — videowall-line
// and narrow-stream are the honest hard cases (their warm solve is a
// large share of the cold total, capping any recompile win near 2.5×),
// the tree-unit pairs the representative sessions workload.
var OnlinePairs = []CorePair{
	{"videowall-line", "line-unit"},
	{"caterpillar-backbone", "tree-unit"},
	{"star-uplink", "tree-unit"},
	{"profit-ladder", "tree-unit"},
	{"narrow-stream", "narrow"},
	{"capacitated-tree", "arbitrary"},
}

// OnlineChurns are the tracked per-step churn rates (fraction of live
// jobs swapped between consecutive resolves).
var OnlineChurns = []float64{0.02, 0.10, 0.30}

// OnlineEntry is the measured cost of one (scenario, algo, churn) cell.
type OnlineEntry struct {
	Scenario string  `json:"scenario"`
	Algo     string  `json:"algo"`
	Churn    float64 `json:"churn"`
	Steps    int     `json:"steps"`
	Jobs     int     `json:"jobs"`
	// Delta: WithJobs + solve per churn step (the session path).
	DeltaNsPerResolve     float64 `json:"delta_ns_per_resolve"`
	DeltaAllocsPerResolve float64 `json:"delta_allocs_per_resolve"`
	// Cold: fresh core.Compile + solve of the identical effective
	// problem per step.
	ColdNsPerResolve     float64 `json:"cold_ns_per_resolve"`
	ColdAllocsPerResolve float64 `json:"cold_allocs_per_resolve"`
	// Speedups = cold / delta.
	SpeedupNs     float64 `json:"speedup_ns"`
	SpeedupAllocs float64 `json:"speedup_allocs"`
}

// OnlineKey identifies a cell in the baseline map.
func (e *OnlineEntry) OnlineKey() string {
	return fmt.Sprintf("%s/%s@%g", e.Scenario, e.Algo, e.Churn)
}

// OnlineReport is the BENCH_online.json document.
type OnlineReport struct {
	Note       string        `json:"note"`
	Regenerate string        `json:"regenerate"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Entries    []OnlineEntry `json:"entries"`
}

// onlineStep is one churn step of the deterministic sequence: the demand
// indices removed (against the live order before the step) and the
// demands admitted. effective is the resulting demand list, renumbered —
// the problem both arms must solve after the step.
type onlineStep struct {
	removed   []int
	added     []instance.Demand
	effective []instance.Demand
}

// onlineSequence builds the deterministic churn sequence for one cell.
// The live set starts as the scenario's canonical workload; arrivals
// recycle departed payloads through a FIFO so the set size stays fixed.
// Removal entries are positions in the pre-step order — exactly what
// Compiled.WithJobs consumes — and the effective list reproduces its
// splice (survivors in order, then arrivals).
func onlineSequence(pool []instance.Demand, churn float64, steps int, seed int64) []onlineStep {
	rng := rand.New(rand.NewSource(seed))
	live := append([]instance.Demand(nil), pool...)
	var queue []instance.Demand
	out := make([]onlineStep, 0, steps)
	for s := 0; s < steps; s++ {
		k := int(float64(len(live))*churn + 0.5)
		if k < 1 {
			k = 1
		}
		if k > len(live)-1 {
			k = len(live) - 1
		}
		st := onlineStep{}
		for _, at := range rng.Perm(len(live))[:k] {
			st.removed = append(st.removed, at)
		}
		sort.Ints(st.removed)
		rmSet := make(map[int]bool, k)
		for _, at := range st.removed {
			rmSet[at] = true
		}
		survivors := live[:0:0]
		for i, d := range live {
			if rmSet[i] {
				queue = append(queue, d)
			} else {
				survivors = append(survivors, d)
			}
		}
		live = survivors
		for i := 0; i < k && len(queue) > 0; i++ {
			d := queue[0]
			queue = queue[1:]
			st.added = append(st.added, d)
			live = append(live, d)
		}
		for i := range live {
			live[i].ID = i
		}
		st.effective = append([]instance.Demand(nil), live...)
		out = append(out, st)
	}
	return out
}

// OnlineBench measures every tracked cell. Quick shrinks the step count
// (CI smoke); the checked-in baseline should be regenerated without it.
func OnlineBench(quick bool) (*OnlineReport, error) {
	steps := 120
	if quick {
		steps = 25
	}
	report := &OnlineReport{
		Note: "dynamic sessions: per churn step, delta = WithJobs incremental recompile + solve, " +
			"cold = fresh core.Compile + solve of the identical effective problem; " +
			"speedups are cold/delta — the value of delta recompilation at each churn rate",
		Regenerate: "go run ./cmd/schedbench -online -o BENCH_online.json",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, pair := range OnlinePairs {
		s, ok := scenario.Get(pair.Scenario)
		if !ok {
			return nil, fmt.Errorf("bench: unknown scenario %q", pair.Scenario)
		}
		base, err := s.Generate(scenario.Params{}, 1)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %v", pair.Scenario, err)
		}
		for _, churn := range OnlineChurns {
			entry := OnlineEntry{Scenario: pair.Scenario, Algo: pair.Algo, Churn: churn, Steps: steps, Jobs: len(base.Demands)}
			seq := onlineSequence(base.Demands, churn, steps, 7)

			// Untimed splice check: the driver's effective list must
			// reproduce the WithJobs splice exactly, or the two arms
			// would silently solve different problems.
			vc, err := core.Compile(base, 0)
			if err != nil {
				return nil, err
			}
			for i := range seq {
				nc, err := vc.WithJobs(seq[i].added, seq[i].removed)
				if err != nil {
					return nil, fmt.Errorf("bench: %s@%g splice step %d: %v", pair.Scenario, churn, i, err)
				}
				if !reflect.DeepEqual(nc.Problem().Demands, seq[i].effective) {
					return nil, fmt.Errorf("bench: %s@%g step %d: driver and WithJobs splices diverged", pair.Scenario, churn, i)
				}
				vc = nc
			}

			// The two arms replay the sequence once each, one call per
			// step. The delta arm's starting compilation solves once untimed
			// so the full model exists, as a session's first resolve would
			// have ensured; the cold arm recompiles each step's effective
			// problem from scratch.
			cur, err := core.Compile(base, 0)
			if err != nil {
				return nil, err
			}
			if err := coreSolve(cur, pair.Algo, nil); err != nil {
				return nil, fmt.Errorf("bench: %s/%s warmup: %v", pair.Scenario, pair.Algo, err)
			}
			problems := make([]*instance.Problem, len(seq))
			for i := range seq {
				p := *base
				p.Demands = seq[i].effective
				problems[i] = &p
			}
			res, err := measureArms(plan{rounds: 1, calls: len(seq)},
				arm{"delta", func(i int) error {
					nc, err := cur.WithJobs(seq[i].added, seq[i].removed)
					if err != nil {
						return err
					}
					if err := coreSolve(nc, pair.Algo, nil); err != nil {
						return err
					}
					cur = nc
					return nil
				}},
				arm{"cold", func(i int) error {
					c, err := core.Compile(problems[i], 0)
					if err != nil {
						return err
					}
					return coreSolve(c, pair.Algo, nil)
				}})
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %v", entry.OnlineKey(), err)
			}
			entry.DeltaNsPerResolve, entry.DeltaAllocsPerResolve = res[0].nsPerCall(), res[0].allocs
			entry.ColdNsPerResolve, entry.ColdAllocsPerResolve = res[1].nsPerCall(), res[1].allocs

			if entry.DeltaNsPerResolve > 0 {
				entry.SpeedupNs = entry.ColdNsPerResolve / entry.DeltaNsPerResolve
			}
			if entry.DeltaAllocsPerResolve > 0 {
				entry.SpeedupAllocs = entry.ColdAllocsPerResolve / entry.DeltaAllocsPerResolve
			}
			report.Entries = append(report.Entries, entry)
		}
	}
	return report, nil
}

// CheckOnline gates a fresh measurement against the checked-in
// baseline, per cell: the delta arm's and the cold arm's allocations per
// resolve, each against that arm's own baseline (at most 1+regressionTol
// times it), and the wall-clock speedup against the nsCatastropheFactor
// backstop. The speedup columns are not gated otherwise: a ratio gate
// fails first only when the cold arm improves. Cells present only in the
// baseline are ignored so the tracked set can evolve.
func CheckOnline(current, baseline *OnlineReport) []Gate {
	var gates gateList
	base := index(baseline.Entries, (*OnlineEntry).OnlineKey)
	for i := range current.Entries {
		e := &current.Entries[i]
		key := e.OnlineKey()
		want := base[key]
		if want == nil {
			gates.inert(key, "not in baseline")
			continue
		}
		gates.atMost(key+" delta allocs/resolve", e.DeltaAllocsPerResolve, want.DeltaAllocsPerResolve, 1+regressionTol, "allocs")
		gates.atMost(key+" cold allocs/resolve", e.ColdAllocsPerResolve, want.ColdAllocsPerResolve, 1+regressionTol, "allocs")
		gates.atLeast(key+" ns speedup backstop", e.SpeedupNs, want.SpeedupNs, 1/nsCatastropheFactor, "x")
	}
	return gates
}
