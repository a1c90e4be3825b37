package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/online"
	"treesched/internal/service"
)

// Workload generation. Every request byte is a function of the workload
// name and the seed alone, and all of it exists before the server starts.

// conns is the number of keep-alive connections, each driven by one
// closed-loop client goroutine.
const conns = 2

// request is one HTTP request. In path, "{id}" stands for the session id
// the server assigned to the connection's session.
type request struct {
	method string
	path   string
	body   []byte
}

// op is one measured operation: its requests are sent back to back on
// one connection and its latency runs from the first byte written to the
// last byte read. Every workload's op is two requests: a problem under
// two algorithms, or a session's event batch and schedule. Ops with equal
// keys must receive byte-identical responses.
type op struct {
	key  int
	reqs []request
}

// stream is one connection's traffic. The measured phase sends ops in
// order and wraps around at the end; every workload keeps a wrapped op
// equivalent to a first one (see freshPool and sessionHalf).
type stream struct {
	open *request // session-churn: opens the connection's session
	warm []op     // sent during every set-up, before the measured phase
	ops  []op     // the measured phase
}

type workload struct {
	name    string
	streams [conns]stream
}

var workloadNames = []string{"memo-hit", "fresh-pair", "session-churn"}

func makeWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "memo-hit":
		memoHit(w, seed)
	case "fresh-pair":
		freshPair(w, seed)
	case "session-churn":
		sessionChurn(w, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	return w, nil
}

// rngFor derives an independent generator per (seed, stream) so adding a
// stream never shifts another stream's bytes.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

func solveBody(algo string, p *instance.Problem) []byte {
	data, err := json.Marshal(service.Request{Algo: algo, Problem: p})
	if err != nil {
		panic(err) // generated problems always marshal
	}
	return data
}

func solveReq(algo string, p *instance.Problem) request {
	return request{method: "POST", path: "/solve", body: solveBody(algo, p)}
}

// family is one problem generator with the two algorithms an op sends on
// it; the first request of a pair builds the model, the second reuses it.
type family struct {
	algos [2]string
	make  func(rng *rand.Rand, demands int) *instance.Problem
}

func trees(cfg gen.TreeConfig) func(*rand.Rand, int) *instance.Problem {
	return func(rng *rand.Rand, demands int) *instance.Problem {
		cfg.Demands = demands
		return gen.TreeProblem(cfg, rng)
	}
}

func lines(cfg gen.LineConfig) func(*rand.Rand, int) *instance.Problem {
	return func(rng *rand.Rand, demands int) *instance.Problem {
		cfg.Demands = demands
		return gen.LineProblem(cfg, rng)
	}
}

// memoDemands spreads memo-hit problem sizes over 100–300 demands (mean
// 200, ~18 KB bodies) by Zipf rank, the same for every seed. With one size
// for all, request latencies sit on a few service times and the median
// jumps between them as the machine's load shifts.
func memoDemands(rank int) int { return 100 + 200*((7*rank)%16)/15 }

// memoFamilies: random trees and lines.
var memoFamilies = []family{
	{[2]string{"tree-unit", "sequential"}, trees(gen.TreeConfig{N: 48, Trees: 3, Unit: true, AccessProb: 0.5})},
	{[2]string{"line-unit", "seq-line"}, lines(gen.LineConfig{Slots: 48, Resources: 3, Unit: true, AccessProb: 0.5, MaxProc: 6, Slack: 6})},
}

// memoHit: 32 problems (16 trees, 16 lines) × 2 algorithms = 64 distinct
// requests. Set-up solves each once; the measured phase draws problems
// Zipf-skewed and sends each under both algorithms, so every measured
// request is a result-cache hit.
func memoHit(w *workload, seed int64) {
	const problems = 32
	var pairs [][]request
	rng := rngFor(seed, 0)
	for k := 0; k < problems; k++ {
		f := memoFamilies[k%len(memoFamilies)]
		p := f.make(rng, memoDemands(k))
		pairs = append(pairs, []request{solveReq(f.algos[0], p), solveReq(f.algos[1], p)})
	}
	const draws = 4096
	for c := range w.streams {
		s := &w.streams[c]
		for k := c; k < problems; k += conns {
			s.warm = append(s.warm, op{key: k, reqs: pairs[k]})
		}
		z := rand.NewZipf(rngFor(seed, int64(1+c)), 1.2, 1, problems-1)
		for i := 0; i < draws; i++ {
			k := int(z.Uint64())
			s.ops = append(s.ops, op{key: k, reqs: pairs[k]})
		}
	}
}

const freshDemands = 160

// freshFamilies: caterpillars, lines, capacitated trees, binary trees.
var freshFamilies = []family{
	{[2]string{"tree-unit", "dist-unit"}, trees(gen.TreeConfig{N: 64, Trees: 4, Shape: gen.ShapeCaterpillar, Unit: true, AccessProb: 0.6})},
	{[2]string{"line-unit", "seq-line"}, lines(gen.LineConfig{Slots: 64, Resources: 4, Unit: true, AccessProb: 0.6, MaxProc: 6, Slack: 6})},
	{[2]string{"arbitrary", "greedy"}, trees(gen.TreeConfig{N: 64, Trees: 4, HMin: 0.1, HMax: 1, Capacity: 1.6, CapJitter: 0.5, AccessProb: 0.6})},
	{[2]string{"tree-unit", "sequential"}, trees(gen.TreeConfig{N: 64, Trees: 4, Shape: gen.ShapeBinary, Unit: true, AccessProb: 0.6})},
}

// freshPool is the number of problems per connection. Past it a stream
// wraps; a wrapped problem was last sent 2×conns×freshPool requests
// earlier, four times what the result cache holds, so it has left both
// caches and is still a miss on each.
const freshPool = 512

// freshPair: every problem is new; an op sends it twice back to back,
// under its family's two algorithms.
func freshPair(w *workload, seed int64) {
	const warmPairs = 8
	for c := range w.streams {
		s := &w.streams[c]
		rng := rngFor(seed, int64(c))
		key := c << 24
		emit := func(dst *[]op, i int) {
			f := freshFamilies[i%len(freshFamilies)]
			p := f.make(rng, freshDemands)
			*dst = append(*dst, op{key: key, reqs: []request{solveReq(f.algos[0], p), solveReq(f.algos[1], p)}})
			key++
		}
		for i := 0; i < warmPairs; i++ {
			emit(&s.warm, i)
		}
		for i := 0; i < freshPool; i++ {
			emit(&s.ops, i)
		}
	}
}

const (
	sessionJobs = 400
	churnPerOp  = 20 // removes and adds per op: 5% of the live jobs each
	sessionAlgo = "tree-unit"
	// sessionHalf is half the period of a session stream: sessionHalf
	// random ops, then their inverses in reverse order, which bring the
	// live job set back to where the period began so the stream can wrap.
	sessionHalf = 512
)

// sessionChurn: one session per connection on a fixed tree network with
// sessionJobs live jobs; each op POSTs an NDJSON batch (removes, adds,
// resolve) and then GETs the schedule. Job ids 0..sessionJobs-1 start
// live; as many more wait in a dead pool, each id with a fixed demand.
func sessionChurn(w *workload, seed int64) {
	for c := range w.streams {
		s := &w.streams[c]
		rng := rngFor(seed, int64(c))
		p := gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 3, Demands: 2 * sessionJobs, Shape: gen.ShapeRandom, Unit: true, AccessProb: 0.5}, rng)
		network := *p
		network.Demands = p.Demands[:sessionJobs]
		open, err := json.Marshal(service.SessionRequest{Algo: sessionAlgo, Network: &network})
		if err != nil {
			panic(err)
		}
		s.open = &request{method: "POST", path: "/session", body: open}
		live := make([]int64, sessionJobs)
		dead := make([]int64, sessionJobs)
		for i := range live {
			live[i], dead[i] = int64(i), int64(sessionJobs+i)
		}
		key := c << 24
		period := func(half int) []op {
			var out []op
			live0, dead0 := slices.Clone(live), slices.Clone(dead)
			defer func() { live, dead = live0, dead0 }()
			batches := make([][2][]int64, half)
			for i := range batches {
				rm, add := draw(rng, &live), draw(rng, &dead)
				live, dead = append(live, add...), append(dead, rm...)
				batches[i] = [2][]int64{rm, add}
			}
			for i := 0; i < 2*half; i++ {
				var rm, add []int64
				if i < half {
					rm, add = batches[i][0], batches[i][1]
				} else {
					b := batches[2*half-1-i]
					rm, add = b[1], b[0]
				}
				out = append(out, op{key: key, reqs: []request{
					{method: "POST", path: "/session/{id}/events", body: eventBatch(rm, add, p.Demands)},
					{method: "GET", path: "/session/{id}/schedule"},
				}})
				key++
			}
			return out
		}
		// Warm-up: the first resolve compiles the initial jobs; a short
		// period then leaves the live set where the measured stream starts.
		s.warm = []op{{key: key, reqs: []request{{method: "GET", path: "/session/{id}/schedule"}}}}
		key++
		s.warm = append(s.warm, period(2)...)
		s.ops = period(sessionHalf)
	}
}

// draw takes churnPerOp random ids out of *from and returns them.
func draw(rng *rand.Rand, from *[]int64) []int64 {
	out := make([]int64, churnPerOp)
	for i := range out {
		j := rng.Intn(len(*from))
		out[i] = (*from)[j]
		(*from)[j] = (*from)[len(*from)-1]
		*from = (*from)[:len(*from)-1]
	}
	return out
}

// eventBatch is one op's NDJSON body: removes, adds, then a resolve.
func eventBatch(rm, add []int64, demands []instance.Demand) []byte {
	var body []byte
	line := func(ev online.Event) {
		data, err := json.Marshal(ev)
		if err != nil {
			panic(err)
		}
		body = append(append(body, data...), '\n')
	}
	for _, id := range rm {
		line(online.Event{Op: online.OpRemove, ID: id})
	}
	for _, id := range add {
		line(online.Event{Op: online.OpAdd, Job: &online.Job{ID: id, Demand: demands[id]}})
	}
	line(online.Event{Op: online.OpResolve})
	return body
}
