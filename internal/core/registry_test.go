package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"treesched/internal/instance"
)

// solve is Solve without the network cost, the common shape of the
// one-shot calls in this package's tests.
func solve(p *instance.Problem, name string, opts Options) (*Result, error) {
	r, _, err := Solve(p, name, opts)
	return r, err
}

// solveDist is Solve for a distributed driver, with its cost reattached.
func solveDist(p *instance.Problem, name string, opts Options) (*DistributedResult, error) {
	r, st, err := Solve(p, name, opts)
	if err != nil {
		return nil, err
	}
	return &DistributedResult{Result: r, Net: *st}, nil
}

// solveCompiled runs the named registry entry on a compiled problem.
func solveCompiled(c *Compiled, name string, opts Options) (*Result, error) {
	a, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	r, _, err := a.Run(c, opts)
	return r, err
}

// runDist runs a distributed registry entry with its cost reattached.
func runDist(a Algorithm, c *Compiled, opts Options) (*DistributedResult, error) {
	r, st, err := a.Run(c, opts)
	if err != nil {
		return nil, err
	}
	return &DistributedResult{Result: r, Net: *st}, nil
}

// TestAlgorithmRegistry pins the registry's names, its order (Lookup
// binary-searches it) and the session subset.
func TestAlgorithmRegistry(t *testing.T) {
	want := []string{
		"arbitrary", "dist-narrow", "dist-ps", "dist-unit", "exact", "greedy",
		"line-unit", "narrow", "ps", "seq-line", "sequential", "tree-unit",
	}
	var names, session []string
	for _, a := range Algorithms() {
		names = append(names, a.Name)
		if a.Session {
			session = append(session, a.Name)
		}
		got, ok := Lookup(a.Name)
		if !ok || got.Name != a.Name {
			t.Fatalf("Lookup(%q) = %q, %v", a.Name, got.Name, ok)
		}
	}
	if !slices.Equal(names, want) {
		t.Fatalf("registry names = %v, want %v", names, want)
	}
	wantSession := slices.DeleteFunc(slices.Clone(want), func(n string) bool { return n == "exact" })
	if !slices.Equal(session, wantSession) {
		t.Fatalf("session algorithms = %v, want %v", session, wantSession)
	}
	if _, ok := Lookup("no-such-algo"); ok {
		t.Fatal("Lookup found an unregistered name")
	}
	if _, _, err := Solve(nil, "no-such-algo", Options{}); err == nil {
		t.Fatal("Solve accepted an unregistered name")
	}
}

// TestAlgorithmOptionContract turns the registry's Reads* declarations
// into a check: for every entry and every scenario preset, two solves
// whose options differ only in fields the entry declares unread must
// produce identical outcomes — selection, profit, dual bound, network
// cost and error. The serving layer memoizes on KeyOptions, so a wrong
// declaration would let one request be answered with another's result.
func TestAlgorithmOptionContract(t *testing.T) {
	base := Options{Epsilon: 0.2, Seed: 3, MaxNodes: 50_000}
	for name, p := range scenarioProblems(t) {
		c, err := Compile(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, a := range Algorithms() {
			other := base
			if !a.ReadsEpsilonSeed {
				other.Epsilon, other.Seed = 0.45, 11
			}
			if !a.ReadsFixedRounds {
				other.FixedRounds = true
			}
			if !a.ReadsMaxNodes {
				other.MaxNodes = 7
			}
			if a.KeyOptions(base) != a.KeyOptions(other) {
				t.Fatalf("%s: KeyOptions keeps a field the entry declares unread: %+v vs %+v",
					a.Name, a.KeyOptions(base), a.KeyOptions(other))
			}
			want := outcomeOf(a.Run(c, base))
			got := outcomeOf(a.Run(c, other))
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s/%s: output depends on an undeclared option field:\n  %+v\nvs\n  %+v",
					name, a.Name, want, got)
			}
		}
	}
}
