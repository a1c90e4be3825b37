package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"treesched/internal/instance"
	"treesched/internal/online"
	"treesched/internal/service"
	"treesched/internal/verify"
)

// Output checks, all run after the measured phase. A failed op is one with
// a transport error, a non-200 status, response bytes that differ from the
// reference, or a schedule that fails verification or its certificate.

// inProcess is the server's in-process twin: the same engine code with the
// same shipped defaults (the -trace-sample 0.01 default included).
type inProcess struct {
	eng *service.Engine
	h   http.Handler
}

func newInProcess() *inProcess {
	eng := service.New(service.Config{TraceSample: 0.01})
	return &inProcess{eng: eng, h: eng.Handler()}
}

func (ip *inProcess) serve(method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	ip.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// open opens a session in-process and returns its id.
func (ip *inProcess) open(r *request) (string, error) {
	st, body := ip.serve(r.method, r.path, r.body)
	if st != http.StatusOK {
		return "", fmt.Errorf("in-process open session: status %d: %s", st, body)
	}
	var info service.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return "", err
	}
	return info.SessionID, nil
}

func pathFor(r *request, sid string) string { return strings.ReplaceAll(r.path, "{id}", sid) }

// verdict collects failed ops and the first few reasons, plus the
// distributed-driver counts the checked responses report.
type verdict struct {
	failed           int
	notes            []string
	rounds, messages int64
}

func (v *verdict) fail(format string, args ...any) {
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) merge(o verdict) {
	v.failed += o.failed
	v.rounds += o.rounds
	v.messages += o.messages
	for _, n := range o.notes {
		if len(v.notes) < 8 {
			v.notes = append(v.notes, n)
		}
	}
}

// checkPhase replays every distinct op of the measured phase through an
// in-process engine to get its reference bytes, compares each response
// with them, and checks each distinct schedule. Connections replay
// concurrently; their sessions are opened in connection order first, so
// session ids match the server's.
func checkPhase(w *workload, ph *phase, cs [conns]*conn) verdict {
	ip := newInProcess()
	defer ip.eng.Close()
	var sids [conns]string
	var v verdict
	for c := range cs {
		if s := &w.streams[c]; s.open != nil {
			sid, err := ip.open(s.open)
			if err != nil {
				v.failed += len(ph.recs[c])
				v.fail("%v", err)
				return v
			}
			sids[c] = sid
		}
	}
	var per [conns]verdict
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = checkStream(ip, &w.streams[c], sids[c], ph.recs[c], cs[c])
		}(c)
	}
	wg.Wait()
	for _, p := range per {
		v.merge(p)
	}
	return v
}

func checkStream(ip *inProcess, s *stream, sid string, recs []record, cn *conn) verdict {
	var v verdict
	var mirror *sessionMirror
	if s.open != nil {
		m, err := newSessionMirror(s.open.body)
		if err != nil {
			v.failed = len(recs)
			v.fail("session mirror: %v", err)
			return v
		}
		mirror = m
		for i := range s.warm {
			replayOp(ip, &s.warm[i], sid)
			if _, _, err := mirror.apply(&s.warm[i]); err != nil {
				v.failed = len(recs)
				v.fail("session mirror: %v", err)
				return v
			}
		}
	}
	// refs holds the reference digests per op key. Stateless ops with
	// equal keys are replayed once; a session op is replayed every time it
	// was sent, since the session's state moves on.
	type ref struct {
		digest           [2]uint64
		msg              string // failed output check
		rounds, messages int64
	}
	refs := make(map[int]*ref)
	for _, rec := range recs {
		o := &s.ops[rec.idx]
		r := refs[o.key]
		if r == nil || mirror != nil {
			r = &ref{}
			refs[o.key] = r
			bodies := replayOp(ip, o, sid)
			for j, b := range bodies {
				r.digest[j] = maphash.Bytes(cn.seed, b)
			}
			if mirror != nil {
				if _, _, err := mirror.apply(o); err != nil {
					r.msg = err.Error()
				}
			}
			if r.msg == "" {
				r.msg, r.rounds, r.messages = checkOutputs(o, bodies, mirror)
			}
		}
		v.rounds += r.rounds
		v.messages += r.messages
		msg := r.msg
		if rec.err != nil {
			msg = fmt.Sprintf("transport: %v", rec.err)
		}
		for j := 0; msg == "" && j < len(o.reqs); j++ {
			switch {
			case rec.status[j] != http.StatusOK:
				msg = fmt.Sprintf("%s %s: status %d: %.200s", o.reqs[j].method, o.reqs[j].path, rec.status[j], rec.errBody)
			case rec.digest[j] != r.digest[j]:
				msg = fmt.Sprintf("%s %s (op key %d): response bytes differ from the reference", o.reqs[j].method, o.reqs[j].path, o.key)
			}
		}
		if msg != "" {
			v.failed++
			v.fail("%s", msg)
		}
	}
	return v
}

// replayOp sends an op's requests through the in-process handler and
// returns the response bodies; a non-200 reference body is returned as is
// and shows up as a mismatch or a failed output check.
func replayOp(ip *inProcess, o *op, sid string) [][]byte {
	out := make([][]byte, len(o.reqs))
	for j := range o.reqs {
		r := &o.reqs[j]
		_, out[j] = ip.serve(r.method, pathFor(r, sid), r.body)
	}
	return out
}

// checkOutputs verifies the schedules in an op's reference responses
// against the instance the op sent; the server's bytes equal them or the
// op fails on the byte comparison. It returns "" when all checks pass,
// and the rounds and messages a distributed driver reported.
func checkOutputs(o *op, bodies [][]byte, mirror *sessionMirror) (msg string, rounds, messages int64) {
	for j := range o.reqs {
		r := &o.reqs[j]
		switch {
		case r.path == "/solve":
			var req service.Request
			if err := json.Unmarshal(r.body, &req); err != nil {
				return fmt.Sprintf("decode request: %v", err), 0, 0
			}
			var resp service.Response
			if err := json.Unmarshal(bodies[j], &resp); err != nil {
				return fmt.Sprintf("decode /solve response: %v: %.200s", err, bodies[j]), 0, 0
			}
			if msg := checkSchedule(req.Algo, req.Problem, &resp); msg != "" {
				return msg, 0, 0
			}
			rounds += int64(resp.Rounds)
			messages += resp.Messages
		case strings.HasSuffix(r.path, "/schedule"):
			var sched service.SessionSchedule
			if err := json.Unmarshal(bodies[j], &sched); err != nil {
				return fmt.Sprintf("decode schedule: %v: %.200s", err, bodies[j]), 0, 0
			}
			if msg := checkSchedule(sessionAlgo, mirror.problem(), &sched.Response); msg != "" {
				return msg, 0, 0
			}
			if len(sched.JobIDs) != len(sched.Response.Selected) {
				return "schedule: job_ids and selected differ in length", 0, 0
			}
			for i, d := range sched.Response.Selected {
				if sched.JobIDs[i] != mirror.order[d.Demand] {
					return fmt.Sprintf("schedule: job_ids[%d] = %d, want %d", i, sched.JobIDs[i], mirror.order[d.Demand]), 0, 0
				}
			}
		}
	}
	return "", rounds, messages
}

// checkSchedule runs the feasibility check and, for every algorithm that
// certifies its profit (all but greedy), weak duality: dual_upper_bound ≥
// profit.
func checkSchedule(algo string, p *instance.Problem, resp *service.Response) string {
	if err := verify.Solution(p, resp.Selected); err != nil {
		return fmt.Sprintf("%s: %v", algo, err)
	}
	if algo != "greedy" && resp.DualUpperBound < resp.Profit*(1-1e-9) {
		return fmt.Sprintf("%s: dual_upper_bound %g < profit %g", algo, resp.DualUpperBound, resp.Profit)
	}
	return ""
}

// sessionMirror rebuilds a session's effective problem from the requests
// sent to it, with the online.Session commit rule: survivors keep their
// order and additions append.
type sessionMirror struct {
	network *instance.Problem // demand-less template
	jobs    map[int64]instance.Demand
	order   []int64 // order[d] = job id of demand d
}

func newSessionMirror(openBody []byte) (*sessionMirror, error) {
	var req service.SessionRequest
	if err := json.Unmarshal(openBody, &req); err != nil {
		return nil, err
	}
	tmpl := *req.Network
	tmpl.Demands = nil
	m := &sessionMirror{network: &tmpl, jobs: make(map[int64]instance.Demand)}
	for i, d := range req.Network.Demands {
		m.jobs[int64(i)] = d
		m.order = append(m.order, int64(i))
	}
	return m, nil
}

// decodeEvents decodes an NDJSON event batch the way the server does.
func decodeEvents(body []byte) ([]online.Event, error) {
	var evs []online.Event
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 32<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev online.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}

// apply commits the op's event batch, if it has one, and returns what
// Compiled.WithJobs takes for it: the removed demands' positions in the
// previous order and the added demands.
func (m *sessionMirror) apply(o *op) (removed []int, added []instance.Demand, err error) {
	for j := range o.reqs {
		if o.reqs[j].method != "POST" {
			continue
		}
		evs, err := decodeEvents(o.reqs[j].body)
		if err != nil {
			return nil, nil, err
		}
		gone := make(map[int64]bool)
		var addedIDs []int64
		for _, ev := range evs {
			switch ev.Op {
			case online.OpRemove:
				gone[ev.ID] = true
			case online.OpAdd:
				m.jobs[ev.Job.ID] = ev.Job.Demand
				addedIDs = append(addedIDs, ev.Job.ID)
				added = append(added, ev.Job.Demand)
			}
		}
		next := m.order[:0:0]
		for d, id := range m.order {
			if gone[id] {
				delete(m.jobs, id)
				removed = append(removed, d)
				continue
			}
			next = append(next, id)
		}
		m.order = append(next, addedIDs...)
	}
	return removed, added, nil
}

// problem returns the effective problem: live jobs in committed order,
// renumbered.
func (m *sessionMirror) problem() *instance.Problem {
	p := *m.network
	p.Demands = make([]instance.Demand, len(m.order))
	for d, id := range m.order {
		dem := m.jobs[id]
		dem.ID = d
		p.Demands[d] = dem
	}
	return &p
}
