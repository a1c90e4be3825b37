package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDrainBoundsEngineClose: a closer that never returns (a solve that
// outlasts the budget) must not hold the process past the drain timeout,
// and the abandoned solves are logged.
func TestDrainBoundsEngineClose(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }

	const budget = 50 * time.Millisecond
	begin := time.Now()
	ok := drain(&http.Server{}, func() { <-release }, func() int64 { return 2 }, budget, logf)
	if elapsed := time.Since(begin); elapsed > 10*budget {
		t.Fatalf("drain took %s with a %s budget", elapsed, budget)
	}
	if ok {
		t.Fatal("drain reported a full drain while the closer was still blocked")
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "abandoning 2 in-flight solves") {
		t.Fatalf("drain logged %q", logged)
	}
}

// TestDrainWaitsForEngineClose: a closer that finishes inside the budget
// is waited for, and nothing is abandoned.
func TestDrainWaitsForEngineClose(t *testing.T) {
	closed := false
	closeEngine := func() {
		time.Sleep(10 * time.Millisecond)
		closed = true
	}
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	if !drain(&http.Server{}, closeEngine, func() int64 { return 0 }, 5*time.Second, logf) || !closed {
		t.Fatalf("drain returned before the closer finished (closed %v)", closed)
	}
	if len(logged) != 0 {
		t.Fatalf("drain logged %q", logged)
	}
}

// blockingShutdown is a server whose Shutdown waits out its context, as
// http.Server does while a handler outlives the drain budget.
type blockingShutdown struct{}

func (blockingShutdown) Shutdown(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestDrainOneBudget: the HTTP drain and the engine close share the
// budget, so a spent HTTP drain leaves the engine no extra time.
func TestDrainOneBudget(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	const budget = 50 * time.Millisecond
	begin := time.Now()
	if drain(blockingShutdown{}, func() { <-release }, func() int64 { return 1 }, budget, logf) {
		t.Fatal("drain reported a full drain")
	}
	if elapsed := time.Since(begin); elapsed > 10*budget {
		t.Fatalf("drain took %s with a %s budget", elapsed, budget)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "abandoning 1 in-flight solves") {
		t.Fatalf("drain logged %q", logged)
	}
}
