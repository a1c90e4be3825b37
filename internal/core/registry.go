package core

import (
	"fmt"
	"slices"
	"strings"

	"treesched/internal/dist"
	"treesched/internal/instance"
)

// Algorithm is one entry of the algorithm registry: a solver by its
// serving name plus the facts every dispatch site needs about it. The
// registry is the single name→solver table of the module — the service,
// online sessions, schedtool and the benchmarks all dispatch through it,
// so adding an algorithm takes one entry.
type Algorithm struct {
	// Name is the registry name (schedtool -algo, the service's "algo").
	Name string
	// Run solves a compiled problem. Stats is the measured network cost
	// of the distributed drivers and nil for centralized solvers.
	Run func(c *Compiled, opts Options) (*Result, *dist.Stats, error)

	// The Reads* flags declare which of the request-settable Options
	// fields can change Run's output. KeyOptions zeroes the others, so
	// the declarations decide which requests share a memoized result;
	// TestAlgorithmOptionContract solves every entry twice with options
	// differing only in undeclared fields and requires identical output.
	// The remaining fields never change a selection or certificate:
	// DistWorkers, CompileWorkers and Telemetry only move cost or
	// observe, CollectTrace only attaches Result.Trace, and DecompKind is
	// fixed at Compile time.
	ReadsEpsilonSeed bool // Epsilon and Seed
	ReadsFixedRounds bool // FixedRounds (the distributed drivers)
	ReadsMaxNodes    bool // MaxNodes (the exact search budget)

	// Session reports whether online sessions may dispatch the
	// algorithm: every solver whose cost is bounded without a per-request
	// budget.
	Session bool
}

// KeyOptions normalizes opts to the fields that can change a's output:
// defaults are applied and every field a does not read is zeroed, so two
// option values with equal KeyOptions produce identical results. The
// serving layer keys its result cache on the normalized form.
func (a Algorithm) KeyOptions(opts Options) Options {
	opts = opts.withDefaults()
	if !a.ReadsEpsilonSeed {
		opts.Epsilon, opts.Seed = 0, 0
	}
	if !a.ReadsFixedRounds {
		opts.FixedRounds = false
	}
	if !a.ReadsMaxNodes {
		opts.MaxNodes = 0
	}
	return opts
}

// central adapts a centralized solver method to Algorithm.Run.
func central(f func(*Compiled, Options) (*Result, error)) func(*Compiled, Options) (*Result, *dist.Stats, error) {
	return func(c *Compiled, opts Options) (*Result, *dist.Stats, error) {
		r, err := f(c, opts)
		return r, nil, err
	}
}

// distributed adapts a message-passing driver method to Algorithm.Run.
func distributed(f func(*Compiled, Options) (*DistributedResult, error)) func(*Compiled, Options) (*Result, *dist.Stats, error) {
	return func(c *Compiled, opts Options) (*Result, *dist.Stats, error) {
		dr, err := f(c, opts)
		if err != nil {
			return nil, nil, err
		}
		return dr.Result, &dr.Net, nil
	}
}

// algorithms is the registry, sorted by name (Lookup binary-searches it).
var algorithms = []Algorithm{
	{Name: "arbitrary", Run: central((*Compiled).Arbitrary), ReadsEpsilonSeed: true, Session: true},
	{Name: "dist-narrow", Run: distributed((*Compiled).DistributedNarrow), ReadsEpsilonSeed: true, ReadsFixedRounds: true, Session: true},
	{Name: "dist-ps", Run: distributed((*Compiled).DistributedPanconesiSozio), ReadsEpsilonSeed: true, ReadsFixedRounds: true, Session: true},
	{Name: "dist-unit", Run: distributed((*Compiled).DistributedUnit), ReadsEpsilonSeed: true, ReadsFixedRounds: true, Session: true},
	{Name: "exact", Run: central((*Compiled).Exact), ReadsMaxNodes: true},
	{Name: "greedy", Run: central((*Compiled).Greedy), Session: true},
	{Name: "line-unit", Run: central((*Compiled).LineUnit), ReadsEpsilonSeed: true, Session: true},
	{Name: "narrow", Run: central((*Compiled).NarrowOnly), ReadsEpsilonSeed: true, Session: true},
	{Name: "ps", Run: central((*Compiled).PanconesiSozioUnit), ReadsEpsilonSeed: true, Session: true},
	{Name: "seq-line", Run: central((*Compiled).SequentialLine), Session: true},
	{Name: "sequential", Run: central((*Compiled).Sequential), Session: true},
	{Name: "tree-unit", Run: central((*Compiled).TreeUnit), ReadsEpsilonSeed: true, Session: true},
}

// Algorithms returns the registry in name order. The slice is a copy.
func Algorithms() []Algorithm { return slices.Clone(algorithms) }

// Lookup finds a registry entry by name.
func Lookup(name string) (Algorithm, bool) {
	i, ok := slices.BinarySearchFunc(algorithms, name, func(a Algorithm, n string) int {
		return strings.Compare(a.Name, n)
	})
	if !ok {
		return Algorithm{}, false
	}
	return algorithms[i], true
}

// Solve is the one-shot form of the registry: it compiles p under
// opts.DecompKind and runs the named algorithm once. Callers solving one
// problem repeatedly should Compile once and call Lookup(name).Run.
func Solve(p *instance.Problem, name string, opts Options) (*Result, *dist.Stats, error) {
	a, ok := Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown algorithm %q", name)
	}
	c, err := Compile(p, opts.DecompKind)
	if err != nil {
		return nil, nil, err
	}
	return a.Run(c, opts)
}
