package bench

// The one gate report of CheckCore, CheckOnline, CheckDist and CheckLoad.
// Every gate follows one convention: allocation counts are gated per arm,
// each against that arm's own baseline (they do not move with host
// speed); wall clock is gated only as a within-run ratio of arms the
// kernel measured together, or as the loose nsCatastropheFactor backstop
// (CI runners are not the baseline machine). A gate that cannot engage
// on this run says why, so an inert gate shows up in the CI log instead
// of passing silently.

import "fmt"

// regressionTol is the regression budget of every baseline-relative
// gate: fail beyond 25% worse than the baseline.
const regressionTol = 0.25

// nsCatastropheFactor is the wall-clock backstop multiplier: absolute
// times are only compared loosely because the baseline was recorded on
// other hardware (a CI runner 30% slower than the baseline machine is not
// a code regression).
const nsCatastropheFactor = 4.0

// Gate is one pass/fail test of a Check* function.
type Gate struct {
	Name string
	// Inert says why the gate did not engage on this run; empty when it
	// did.
	Inert  string
	Failed bool
	// Detail is the measured value against its bound.
	Detail string
}

// String renders the gate as one `-check` line: PASS, FAIL or INERT.
func (g Gate) String() string {
	switch {
	case g.Inert != "":
		return "INERT " + g.Name + ": " + g.Inert
	case g.Failed:
		return "FAIL  " + g.Name + ": " + g.Detail
	}
	return "PASS  " + g.Name + ": " + g.Detail
}

// gateList collects the gates of one Check* call.
type gateList []Gate

// check records an engaged gate that passes when ok.
func (l *gateList) check(name string, ok bool, format string, args ...any) {
	*l = append(*l, Gate{Name: name, Failed: !ok, Detail: fmt.Sprintf(format, args...)})
}

// inert records a gate that did not engage on this run, and why.
func (l *gateList) inert(name, reason string) {
	*l = append(*l, Gate{Name: name, Inert: reason})
}

// atMost gates got ≤ factor × want, inert when the baseline holds no
// value.
func (l *gateList) atMost(name string, got, want, factor float64, unit string) {
	if want <= 0 {
		l.inert(name, "baseline has no value")
		return
	}
	l.check(name, got <= want*factor, "%s %s, baseline %s, allowed ≤ %s", num(got), unit, num(want), num(want*factor))
}

// atLeast gates got ≥ factor × want, inert when the baseline holds no
// value.
func (l *gateList) atLeast(name string, got, want, factor float64, unit string) {
	if want <= 0 {
		l.inert(name, "baseline has no value")
		return
	}
	l.check(name, got >= want*factor, "%s %s, baseline %s, allowed ≥ %s", num(got), unit, num(want), num(want*factor))
}

// num formats a gate value: whole numbers from 1000 up, four significant
// digits below.
func num(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// sameProcs is empty when the run and its baseline share GOMAXPROCS, and
// otherwise the reason a wall-clock comparison between them is inert.
func sameProcs(current, baseline int) string {
	if current == baseline {
		return ""
	}
	return fmt.Sprintf("baseline GOMAXPROCS=%d, this run %d", baseline, current)
}

// sameSize is empty when the run measured the baseline's workload size,
// and otherwise the reason a comparison between them is inert.
func sameSize(currentQuick, baselineQuick bool) string {
	switch {
	case currentQuick == baselineQuick:
		return ""
	case currentQuick:
		return "quick run vs full baseline"
	}
	return "full run vs quick baseline"
}

// scaleGateProcs is the smallest GOMAXPROCS at which the parallel
// speedup gates (parallel compile, shard contention) apply. Below it
// (laptops pinned to a core, 1–2 vCPU containers) parallel and serial
// resolve to nearly the same execution and the speedup carries no
// signal; the baseline itself may legitimately be recorded on a
// single-core machine.
const scaleGateProcs = 4

// multicore is empty when both procs counts reach scaleGateProcs, and
// otherwise the reason a parallel-speedup gate is inert.
func multicore(current, baseline int) string {
	switch {
	case current < scaleGateProcs:
		return fmt.Sprintf("needs ≥ %d cores, this run has %d", scaleGateProcs, current)
	case baseline < scaleGateProcs:
		return fmt.Sprintf("needs ≥ %d cores, baseline has %d", scaleGateProcs, baseline)
	}
	return ""
}

// index maps each baseline entry's key to the entry.
func index[E any](entries []E, key func(*E) string) map[string]*E {
	m := make(map[string]*E, len(entries))
	for i := range entries {
		m[key(&entries[i])] = &entries[i]
	}
	return m
}
