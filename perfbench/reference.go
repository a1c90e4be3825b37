package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Reference speed. The host this benchmark runs on is shared, and its
// speed drifts by tens of percent from one minute to the next as other
// tenants load it; the server's CPU time per op drifts with it. So the
// measured phase is cut into slices, and before, between and after them,
// with the server idle, the client times a burst of fixed work. The time
// metrics are scaled by the run's median burst against refNominalNs. The
// burst depends on nothing in the repository, so a change to the server
// moves the scaled metrics as it moves the raw ones. The report prints
// both.

// refNominalNs is about the median burst on a quiet 2-vCPU Intel Xeon
// virtual machine. It only sets the scale: scaled figures read as the raw
// ones would on a host where a burst takes this long.
const refNominalNs = 50e6

const (
	refUnits  = 150     // kernel units in one burst, shared by all cores
	refTable  = 1 << 22 // random-walk table entries (16 MB)
	refSteps  = 1024    // dependent loads per unit
	refSorts  = 5       // sorts of the shuffled array per unit
	refTrips  = 50      // loopback round trips in one burst, shared by all connections
	refConns  = 2       // loopback connections, one goroutine each
	refJobs   = 200     // demands in the round trips' JSON document (~18 KB)
	refReturn = 40      // demands encoded into each reply
)

// refKernel is one goroutine's kernel state. A unit hashes a buffer,
// sorts a shuffled array and walks a random cycle through a table larger
// than the cache: compute, branches and memory latency. It allocates
// nothing.
type refKernel struct {
	buf   []byte
	keys  []uint32
	work  []uint32
	table []uint32
	at    uint32
	sink  byte
}

// xorshift returns a fixed pseudo-random sequence, the same on every run.
func xorshift(seed uint32) func() uint32 {
	x := seed | 1
	return func() uint32 { x ^= x << 13; x ^= x >> 17; x ^= x << 5; return x }
}

func newRefKernel(seed uint32) *refKernel {
	k := &refKernel{buf: make([]byte, 4<<10), keys: make([]uint32, 1024), table: make([]uint32, refTable)}
	next := xorshift(seed)
	for i := range k.buf {
		k.buf[i] = byte(next())
	}
	for i := range k.keys {
		k.keys[i] = next()
	}
	k.work = make([]uint32, len(k.keys))
	// Sattolo's shuffle: one cycle through every entry.
	for i := range k.table {
		k.table[i] = uint32(i)
	}
	for i := len(k.table) - 1; i > 0; i-- {
		j := int(next() % uint32(i))
		k.table[i], k.table[j] = k.table[j], k.table[i]
	}
	return k
}

func (k *refKernel) unit() {
	h := sha256.Sum256(k.buf)
	k.sink ^= h[0]
	for i := 0; i < refSorts; i++ {
		copy(k.work, k.keys)
		slices.Sort(k.work)
	}
	k.sink ^= byte(k.work[len(k.work)/2])
	at := k.at
	for i := 0; i < refSteps; i++ {
		at = k.table[at]
	}
	k.at = at
}

// refDoc is the round trips' JSON document: a scheduling problem's shape
// (tree edges with capacities, demands with windows and access lists) in
// types of the benchmark's own, so no change to the repository moves it.
type refDoc struct {
	Algo     string      `json:"algo"`
	Networks []refNet    `json:"networks"`
	Demands  []refDemand `json:"demands"`
}

type refNet struct {
	Edges [][2]int  `json:"edges"`
	Caps  []float64 `json:"caps"`
}

type refDemand struct {
	ID       int     `json:"id"`
	Profit   float64 `json:"profit"`
	Height   float64 `json:"height"`
	Release  int     `json:"release"`
	Deadline int     `json:"deadline"`
	Proc     int     `json:"proc"`
	Access   []int   `json:"access"`
	Name     string  `json:"name"`
}

func refDocument() ([]byte, error) {
	next := xorshift(12345)
	d := refDoc{Algo: "reference"}
	for n := 0; n < 3; n++ {
		var nt refNet
		for i := 1; i < 48; i++ {
			nt.Edges = append(nt.Edges, [2]int{int(next() % uint32(i)), i})
			nt.Caps = append(nt.Caps, float64(next()%1000)/997)
		}
		d.Networks = append(d.Networks, nt)
	}
	for i := 0; i < refJobs; i++ {
		d.Demands = append(d.Demands, refDemand{ID: i, Profit: float64(next()%100000) / 7, Height: float64(next()%1000) / 999,
			Release: int(next() % 40), Deadline: int(next()%40 + 40), Proc: int(next()%6 + 1),
			Access: []int{int(next() % 3), int(next() % 3)}, Name: fmt.Sprintf("d%06x", next()%0xffffff)})
	}
	return json.Marshal(d)
}

// refHandler decodes the document, encodes and hashes it again and
// replies with the hash and the first demands: what the server's wire
// layer does, here through the standard library alone.
func refHandler(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	var d refDoc
	if err == nil {
		err = json.Unmarshal(body, &d)
	}
	if err != nil || len(d.Demands) < refReturn {
		http.Error(w, fmt.Sprintf("reference document: %v", err), http.StatusBadRequest)
		return
	}
	data, err := json.Marshal(&d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sum := sha256.Sum256(data)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Sum     string      `json:"sum"`
		Demands []refDemand `json:"demands"`
	}{hex.EncodeToString(sum[:]), d.Demands[:refReturn]})
}

// reference times bursts of fixed work. A burst runs refUnits kernel
// units on one goroutine per core, then refTrips round trips over
// loopback HTTP to an in-process server running refHandler. So it samples
// what the benchmark's traffic is made of: compute, branches, memory
// latency, allocation, JSON and system calls with their wake-ups.
type reference struct {
	ks   []*refKernel
	srv  *http.Server
	done chan struct{} // closed when srv.Serve has returned
	cs   [refConns]*conn
	head []byte
	doc  []byte
}

func newReference() (*reference, error) {
	r := &reference{done: make(chan struct{})}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		r.ks = append(r.ks, newRefKernel(uint32(2*i+1)))
	}
	var err error
	if r.doc, err = refDocument(); err != nil {
		return nil, err
	}
	r.head = []byte("POST /reference HTTP/1.1\r\nHost: reference\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(r.doc)) + "\r\n\r\n")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference listener: %w", err)
	}
	r.srv = &http.Server{Handler: http.HandlerFunc(refHandler)}
	go func() {
		defer close(r.done)
		r.srv.Serve(l) // returns http.ErrServerClosed once close is called
	}()
	for i := range r.cs {
		if r.cs[i], err = dial(l.Addr().String(), maphash.MakeSeed()); err != nil {
			r.close()
			return nil, fmt.Errorf("reference connection: %w", err)
		}
	}
	return r, nil
}

// close shuts the in-process server and its connections and waits for
// the server to return.
func (r *reference) close() {
	for _, c := range r.cs {
		if c != nil {
			c.close()
		}
	}
	r.srv.Close()
	<-r.done
}

// burst runs one burst and returns its wall time in ns. Workers take
// units and round trips from shared counters, so a burst measures the
// cores' combined speed, as the server's throughput does, not the
// slowest core's. The client's garbage collector is off during a burst
// and runs in full after it, so no burst pays for collecting the
// client's own heap, whose size depends on the workload.
func (r *reference) burst() (float64, error) {
	defer runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var units, trips atomic.Int64
	var failed atomic.Pointer[error]
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, k := range r.ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for units.Add(1) <= refUnits {
				k.unit()
			}
		}()
	}
	wg.Wait()
	for _, c := range r.cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trips.Add(1) <= refTrips {
				st, err := c.roundTrip(r.head, r.doc)
				if err == nil && st != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", st, c.buf.Bytes())
				}
				if err != nil {
					err = fmt.Errorf("reference round trip: %w", err)
					failed.Store(&err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ns := float64(time.Since(t0).Nanoseconds())
	if err := failed.Load(); err != nil {
		return 0, *err
	}
	return ns, nil
}
