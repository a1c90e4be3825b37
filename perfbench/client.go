package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection. It writes pre-built request
// bytes with one writev and parses responses with net/http's reader, so
// the client adds as little work as possible beside the server.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
	sid  string // session id, session-churn only
	seed maphash.Seed
	dead bool // re-dialling failed: the server stopped listening
}

// record is one completed op. Responses are kept as digests; the checks
// after the measured phase compare them with the reference bytes' digests.
type record struct {
	idx     int // index into the stream's ops (or warm ops)
	latNs   int64
	status  [2]int
	digest  [2]uint64
	errBody []byte // the first non-200 response body
	err     error  // transport error
}

func dial(addr string, seed maphash.Seed) (*conn, error) {
	c := &conn{addr: addr, seed: seed}
	return c, c.redial()
}

func (c *conn) redial() error {
	if c.nc != nil {
		c.nc.Close()
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	return nil
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
	}
}

// head builds the request line and headers for r on this connection.
func (c *conn) head(r *request) []byte {
	path := strings.ReplaceAll(r.path, "{id}", c.sid)
	h := r.method + " " + path + " HTTP/1.1\r\nHost: schedserver\r\n"
	if r.method == "POST" {
		h += "Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(r.body)) + "\r\n"
	}
	return []byte(h + "\r\n")
}

// roundTrip sends one request and reads the whole response into c.buf.
func (c *conn) roundTrip(head, body []byte) (int, error) {
	bufs := net.Buffers{head, body}
	if _, err := bufs.WriteTo(c.nc); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		err = c.redial()
	}
	return resp.StatusCode, err
}

// send runs one op and fills rec. heads holds the op's pre-built heads.
// After a transport error the connection is re-dialled so later ops can
// still run; the failed op is reported through rec.err.
func (c *conn) send(o *op, heads [][]byte, rec *record) {
	t0 := time.Now()
	for j := range o.reqs {
		st, err := c.roundTrip(heads[j], o.reqs[j].body)
		if err != nil {
			rec.err = err
			c.dead = c.redial() != nil
			return
		}
		rec.status[j] = st
		rec.digest[j] = maphash.Bytes(c.seed, c.buf.Bytes())
		if st != http.StatusOK && rec.errBody == nil {
			rec.errBody = bytes.Clone(c.buf.Bytes())
		}
	}
	rec.latNs = time.Since(t0).Nanoseconds()
}

// heads pre-builds every request head of ops for this connection.
func (c *conn) heads(ops []op) [][][]byte {
	out := make([][][]byte, len(ops))
	for i := range ops {
		out[i] = make([][]byte, len(ops[i].reqs))
		for j := range ops[i].reqs {
			out[i][j] = c.head(&ops[i].reqs[j])
		}
	}
	return out
}

// runOnce sends every op of ops once, in order.
func (c *conn) runOnce(ops []op) []record {
	heads := c.heads(ops)
	recs := make([]record, len(ops))
	for i := range ops {
		recs[i].idx = i
		c.send(&ops[i], heads[i], &recs[i])
	}
	return recs
}

// phase is the outcome of the measured phase: every op's record, the
// slices of traffic the phase was cut into and the reference bursts
// before, between and after them, in ns.
type phase struct {
	recs   [conns][]record
	slices []slice
	bursts []float64
}

// slice is one stretch of closed-loop traffic.
type slice struct {
	ops    int
	wallNs int64
}

func (ph *phase) wallNs() int64 {
	var ns int64
	for _, s := range ph.slices {
		ns += s.wallNs
	}
	return ns
}

// loop drives every connection through its stream, one slice at a time;
// a connection's stream continues across slices where it stopped.
type loop struct {
	cs    [conns]*conn
	w     *workload
	heads [conns][][][]byte
	next  [conns]int
	ph    phase
}

func newLoop(cs [conns]*conn, w *workload) *loop {
	l := &loop{cs: cs, w: w}
	for c := range cs {
		l.heads[c] = cs[c].heads(w.streams[c].ops)
		l.ph.recs[c] = make([]record, 0, 1<<14)
	}
	return l
}

// run runs one slice in a closed loop: every connection sends its next op
// as soon as the previous one completes, until d has passed. Ops in
// flight then complete and count; the slice's wall time runs to the last
// completion. It returns the slice's op count and wall time.
func (l *loop) run(d time.Duration) (int, int64) {
	var n [conns]int
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range l.cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, cn := &l.w.streams[c], l.cs[c]
			for ; !cn.dead && time.Now().Before(deadline); l.next[c]++ {
				k := l.next[c] % len(s.ops)
				l.ph.recs[c] = append(l.ph.recs[c], record{idx: k})
				cn.send(&s.ops[k], l.heads[c][k], &l.ph.recs[c][len(l.ph.recs[c])-1])
				n[c]++
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Nanoseconds()
	ops := 0
	for _, k := range n {
		ops += k
	}
	return ops, wall
}

// openSession opens the connection's session and records its id.
func (c *conn) openSession(r *request) error {
	st, err := c.roundTrip(c.head(r), r.body)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("open session: status %d: %s", st, c.buf.Bytes())
	}
	var info struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &info); err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	c.sid = info.SessionID
	return nil
}
