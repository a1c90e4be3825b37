package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"treesched/internal/core"
	"treesched/internal/instance"
	"treesched/internal/obs"
	"treesched/internal/service"
	"treesched/internal/verify"
)

// The traced run replays the measured phase's request bytes, single
// threaded, through an in-process engine and its Handler, then times each
// layer through its public functions on the same bytes. The solver's own
// spans come from an obs.Trace passed as core.Options.Telemetry, so the
// layer names are the flight recorder's: compile, phase1, phase2,
// verify_lambda, assemble, protocol, verify.

// layers accumulates per-layer nanoseconds (and a few counts) over the
// traced ops.
type layers struct {
	ops                      int
	handler, client          int64
	decode, decodeBytes      int64
	hash, cacheCheck         int64
	compile                  int64 // core.Compile plus the solver's compile spans
	decomp, layer, path, idx int64 // model.BuildStats of the builds the ops triggered
	solve                    int64 // solver calls minus their compile spans (/solve)
	phase1, phase2, verifyL  int64
	assemble, protocol, sel  int64
	delta, onlineSolve       int64
	verify                   int64
	encode, encodeBytes      int64
	encodeMismatch           int
}

// attributed is the handler time the layers cover; phase spans are
// inside solve/onlineSolve and are not added again.
func (l *layers) attributed() int64 {
	return l.decode + l.hash + l.cacheCheck + l.compile + l.solve + l.delta + l.onlineSolve + l.verify + l.encode
}

func timeIt(f func()) int64 {
	t := time.Now()
	f()
	return time.Since(t).Nanoseconds()
}

// hashProblem is the server's canonical problem hash: SHA-256 over the
// instance's JSON wire form.
func hashProblem(p *instance.Problem) string {
	data, err := json.Marshal(p)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// solveAlgo runs one of the workloads' algorithms on a compiled problem.
func solveAlgo(c *core.Compiled, algo string, opts core.Options) (*core.Result, error) {
	switch algo {
	case "tree-unit":
		return c.TreeUnit(opts)
	case "line-unit":
		return c.LineUnit(opts)
	case "sequential":
		return c.Sequential(opts)
	case "seq-line":
		return c.SequentialLine(opts)
	case "arbitrary":
		return c.Arbitrary(opts)
	case "greedy":
		return c.GreedyTraced(opts.Telemetry)
	case "dist-unit":
		dr, err := c.DistributedUnit(opts)
		if err != nil {
			return nil, err
		}
		return dr.Result, nil
	}
	return nil, fmt.Errorf("no traced dispatch for %q", algo)
}

// tracedSolve runs the solver with a fresh Trace and folds its spans into
// l. builds dedupes model.BuildStats per compiled problem: a compile span
// carries its model's original build cost even when the model was reused.
func (l *layers) tracedSolve(c *core.Compiled, algo string, opts core.Options, builds map[int64]bool) (*core.Result, int64, error) {
	tel := obs.NewTrace()
	opts.Telemetry = tel
	var res *core.Result
	var err error
	total := timeIt(func() { res, err = solveAlgo(c, algo, opts) })
	compile := tel.PhaseNs("compile")
	l.compile += compile
	l.phase1 += tel.PhaseNs("phase1")
	l.phase2 += tel.PhaseNs("phase2")
	l.verifyL += tel.PhaseNs("verify_lambda")
	l.assemble += tel.PhaseNs("assemble")
	l.protocol += tel.PhaseNs("protocol")
	l.sel += tel.PhaseNs("select")
	for _, sp := range tel.Spans() {
		if sp.Name != "compile" {
			continue
		}
		ctr := map[string]int64{}
		for _, k := range sp.Counters {
			ctr[k.Name] = k.Value
		}
		if t := ctr["build_total_ns"]; t > 0 && !builds[t] {
			builds[t] = true
			l.decomp += ctr["build_decomp_ns"]
			l.layer += ctr["build_layer_ns"]
			l.path += ctr["build_path_ns"]
			l.idx += ctr["build_index_ns"]
		}
	}
	return res, total - compile, err
}

// encodeLike encodes v the way the server's writeJSON does.
func encodeLike(buf *bytes.Buffer, v any) {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // bytes.Buffer writes cannot fail
}

// tracer is the per-connection state of the traced replay.
type tracer struct {
	ip  *inProcess
	s   *stream
	sid string

	// /solve: the last compiled problem, shared by a pair's two requests.
	lastHash string
	last     *core.Compiled
	builds   map[int64]bool

	// session-churn: a core.Compiled chain mirroring the session.
	mirror *sessionMirror
	chain  *core.Compiled
}

// tracedRun replays the measured records of every connection round-robin
// (per-connection order kept) until all are replayed or budget passes.
func tracedRun(w *workload, ph *phase, budget time.Duration) (*layers, error) {
	ip := newInProcess()
	defer ip.eng.Close()
	l := &layers{}
	var ts [conns]*tracer
	for c := range ts {
		t := &tracer{ip: ip, s: &w.streams[c], builds: map[int64]bool{}}
		if t.s.open != nil {
			sid, err := ip.open(t.s.open)
			if err != nil {
				return nil, err
			}
			t.sid = sid
			if t.mirror, err = newSessionMirror(t.s.open.body); err != nil {
				return nil, err
			}
		}
		ts[c] = t
	}
	// Warm-up ops put the engine (and the session mirror chain) in the
	// state the server had when the measured phase began; they are not
	// timed.
	for _, t := range ts {
		for i := range t.s.warm {
			if err := t.op(&t.s.warm[i], 0, nil); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		more := false
		for c, t := range ts {
			if i >= len(ph.recs[c]) {
				continue
			}
			more = true
			rec := &ph.recs[c][i]
			if err := t.op(&t.s.ops[rec.idx], rec.latNs, l); err != nil {
				return nil, err
			}
		}
		if !more {
			break
		}
	}
	return l, nil
}

// op replays one op: each request's timed handler pass first (the
// engine's state then matches the server's after the same request), then
// the layer passes. With a nil l it only advances state.
func (t *tracer) op(o *op, clientNs int64, l *layers) error {
	if l != nil {
		l.ops++
		l.client += clientNs
	}
	if t.mirror != nil {
		outs := make([][]byte, len(o.reqs))
		for j := range o.reqs {
			out, err := t.serve(&o.reqs[j], l)
			if err != nil {
				return err
			}
			outs[j] = out
		}
		return t.sessionLayers(o, outs, l)
	}
	for j := range o.reqs {
		before := t.ip.eng.Metrics()
		out, err := t.serve(&o.reqs[j], l)
		if err != nil {
			return err
		}
		after := t.ip.eng.Metrics()
		if err := t.solveLayers(&o.reqs[j], out, l, after.ResultMisses > before.ResultMisses, after.CompiledMisses > before.CompiledMisses); err != nil {
			return err
		}
	}
	return nil
}

// serve sends one request through the in-process handler, adding its
// time to l's handler total.
func (t *tracer) serve(r *request, l *layers) ([]byte, error) {
	var st int
	var out []byte
	ns := timeIt(func() { st, out = t.ip.serve(r.method, pathFor(r, t.sid), r.body) })
	if st != http.StatusOK {
		return nil, fmt.Errorf("traced replay: %s %s: status %d: %.200s", r.method, r.path, st, out)
	}
	if l != nil {
		l.handler += ns
	}
	return out, nil
}

// solveLayers times one /solve request's layers. solved and compiled say
// whether the handler pass missed the result cache and the compiled cache.
func (t *tracer) solveLayers(r *request, out []byte, l *layers, solved, compiled bool) error {
	var req service.Request
	decode := timeIt(func() {
		if err := json.Unmarshal(r.body, &req); err != nil {
			panic(err) // the handler pass decoded these bytes already
		}
	})
	var h string
	hash := min(timeIt(func() { h = hashProblem(req.Problem) }), timeIt(func() { h = hashProblem(req.Problem) }))
	if l == nil {
		// State-only replay: keep the compiled problem a pair shares.
		if solved {
			t.trackCompiled(h, req.Problem, compiled)
		}
		return nil
	}
	l.decode += decode
	l.decodeBytes += int64(len(r.body))
	l.hash += hash
	// The handler pass memoized the request, so this Solve is a hit:
	// validation, the canonical hash and the result-cache lookup. Both it
	// and the hash are the faster of two runs, so their difference is not
	// swamped by one cold run.
	var err error
	hit := func() { _, err = t.ip.eng.Solve(context.Background(), &req) }
	check := min(timeIt(hit), timeIt(hit))
	if err != nil {
		return err
	}
	l.cacheCheck += check - hash
	if solved {
		var c *core.Compiled
		l.compile += timeIt(func() { c = t.trackCompiled(h, req.Problem, compiled) })
		res, solve, err := l.tracedSolve(c, req.Algo, core.Options{Epsilon: req.Epsilon, Seed: req.Seed, FixedRounds: req.FixedRounds}, t.builds)
		if err != nil {
			return err
		}
		l.solve += solve
		l.verify += timeIt(func() { err = verify.Solution(c.Problem(), res.Selected) })
		if err != nil {
			return err
		}
	}
	var resp service.Response
	if err := json.Unmarshal(out, &resp); err != nil {
		return err
	}
	var buf bytes.Buffer
	l.encode += timeIt(func() { encodeLike(&buf, &resp) })
	l.encodeBytes += int64(buf.Len())
	if !bytes.Equal(buf.Bytes(), out) {
		l.encodeMismatch++
	}
	return nil
}

// trackCompiled returns the compiled problem for hash h: a fresh
// core.Compile when the engine missed its compiled cache, else the one
// the previous request of the pair built.
func (t *tracer) trackCompiled(h string, p *instance.Problem, miss bool) *core.Compiled {
	if miss || h != t.lastHash {
		c, err := core.Compile(p, 0)
		if err != nil {
			panic(err) // the engine compiled the same bytes
		}
		t.lastHash, t.last, t.builds = h, c, map[int64]bool{}
	}
	return t.last
}

// sessionLayers mirrors one session op on a core.Compiled chain: decode
// the event batch, delta-recompile (Compiled.WithJobs), solve, verify,
// and encode both responses.
func (t *tracer) sessionLayers(o *op, outs [][]byte, l *layers) error {
	sl := l
	if sl == nil {
		sl = &layers{}
	}
	var err error
	for j := range o.reqs {
		if o.reqs[j].method == "POST" {
			sl.decode += timeIt(func() { _, err = decodeEvents(o.reqs[j].body) })
			if err != nil {
				return err
			}
			sl.decodeBytes += int64(len(o.reqs[j].body))
		}
	}
	if t.chain == nil {
		// The session's first resolve: a full compile of the initial jobs.
		c, err := core.Compile(t.mirror.problem(), 0)
		if err != nil {
			return err
		}
		t.chain = c
		if _, _, err := sl.tracedSolve(c, sessionAlgo, core.Options{}, map[int64]bool{}); err != nil {
			return err
		}
	}
	removed, added, err := t.mirror.apply(o)
	if err != nil {
		return err
	}
	if len(removed)+len(added) > 0 {
		var next *core.Compiled
		sl.delta += timeIt(func() { next, err = t.chain.WithJobs(added, removed) })
		if err != nil {
			return err
		}
		t.chain = next
		res, solve, err := sl.tracedSolve(next, sessionAlgo, core.Options{}, map[int64]bool{})
		if err != nil {
			return err
		}
		sl.onlineSolve += solve
		sl.verify += timeIt(func() { err = verify.Solution(next.Problem(), res.Selected) })
		if err != nil {
			return err
		}
	}
	for j := range o.reqs {
		var v any = &service.SessionEventsResult{}
		if o.reqs[j].method == "GET" {
			v = &service.SessionSchedule{}
		}
		if err := json.Unmarshal(outs[j], v); err != nil {
			return err
		}
		var buf bytes.Buffer
		sl.encode += timeIt(func() { encodeLike(&buf, v) })
		sl.encodeBytes += int64(buf.Len())
		if !bytes.Equal(buf.Bytes(), outs[j]) {
			sl.encodeMismatch++
		}
	}
	return nil
}
