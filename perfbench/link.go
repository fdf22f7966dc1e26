package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

// fifoLink is the simulated bottleneck between the origin and its
// clients: one FIFO transmission queue draining at bps bytes per second.
// Times are seconds on the origin's clock. Loopback carries the bytes;
// the queue only decides when each reply may leave.
type fifoLink struct {
	bps    float64
	freeAt float64 // when the transmitter finishes its current backlog
}

// admit queues n bytes that arrive at now and returns when their
// transmission starts (after every earlier reply has left) and ends.
func (l *fifoLink) admit(now float64, n int) (start, end float64) {
	start = now
	if l.freeAt > start {
		start = l.freeAt
	}
	end = start + float64(n)/l.bps
	l.freeAt = end
	return start, end
}

// linkAcct is the origin's cumulative link accounting. Utilisations
// come from the difference of two snapshots over a window.
type linkAcct struct {
	busyTotal, busyDemand   float64 // seconds spent transmitting
	bytesTotal, bytesDemand int64
	sends                   int64
	waits                   int // queue-wait samples recorded so far
}

// Request headers the traced in-process stack sets on its origin
// requests: the class of the fetch and the round-trip span that carries
// it, so the origin can parent its link spans.
const (
	hdrClass = "X-Bench-Class"
	hdrSpan  = "X-Bench-Span"
)

// origin serves the benchmark's objects through a fifoLink: GET
// /obj/{id} and the framed GET /batch?ids=… wire. The payload of id k is
// k's decimal form repeated to the object size.
type origin struct {
	payloads [][]byte
	prop     time.Duration
	epoch    time.Time
	pending  *pendingSet // client requests in flight, for demand classification

	mu    sync.Mutex
	link  fifoLink
	acct  linkAcct
	waits []float64 // queue wait per transmission, seconds
	rec   *recorder // set while a traced run records spans

	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// makePayload returns id's decimal form repeated to size bytes.
func makePayload(id int64, size int) []byte {
	s := strconv.FormatInt(id, 10)
	b := make([]byte, size)
	for i := 0; i < size; i += len(s) {
		copy(b[i:], s)
	}
	return b
}

// catalog builds the deterministic payload of every object.
func catalog(objects, size int) [][]byte {
	p := make([][]byte, objects)
	for i := range p {
		p[i] = makePayload(int64(i), size)
	}
	return p
}

// startOrigin listens on a loopback port and serves payloads through a
// link of capacity bps bytes/s (0 means unlimited) and propagation delay
// prop.
func startOrigin(payloads [][]byte, bps float64, prop time.Duration, pending *pendingSet) (*origin, error) {
	if bps <= 0 {
		bps = 1e15
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("origin listen: %w", err)
	}
	o := &origin{
		payloads: payloads,
		prop:     prop,
		epoch:    time.Now(),
		pending:  pending,
		link:     fifoLink{bps: bps},
		ln:       ln,
		done:     make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/obj/", o.handleObj)
	mux.HandleFunc("/batch", o.handleBatch)
	o.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(o.done)
		_ = o.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return o, nil
}

// url is the origin's base URL.
func (o *origin) url() string { return "http://" + o.ln.Addr().String() }

// close stops the origin and waits for its server goroutine.
func (o *origin) close() {
	_ = o.srv.Close() // closes listener and connections; nothing to report
	<-o.done
}

// clock returns seconds since the origin started.
func (o *origin) clock() float64 { return time.Since(o.epoch).Seconds() }

// snapshot copies the cumulative accounting.
func (o *origin) snapshot() linkAcct {
	o.mu.Lock()
	defer o.mu.Unlock()
	a := o.acct
	a.waits = len(o.waits)
	return a
}

// waitsBetween returns the queue waits recorded between two snapshots,
// in seconds.
func (o *origin) waitsBetween(a, b linkAcct) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]float64(nil), o.waits[a.waits:b.waits]...)
}

// setRecorder makes the origin record link spans into rec (nil stops).
func (o *origin) setRecorder(rec *recorder) {
	o.mu.Lock()
	o.rec = rec
	o.mu.Unlock()
}

// demand classifies a request: the traced stack says so in a header;
// otherwise a fetch is demand when a client is waiting for one of its
// ids at the moment the origin receives it.
func (o *origin) demand(r *http.Request, ids []fetch.ID) bool {
	switch r.Header.Get(hdrClass) {
	case "demand":
		return true
	case "spec":
		return false
	}
	for _, id := range ids {
		if o.pending.has(int64(id)) {
			return true
		}
	}
	return false
}

// transmit queues n reply bytes on the link and blocks until the last
// byte would arrive at the client: queue wait, transmission time and
// propagation delay.
func (o *origin) transmit(ctx context.Context, r *http.Request, n int, demand bool) {
	now := o.clock()
	o.mu.Lock()
	start, end := o.link.admit(now, n)
	busy := end - start
	o.acct.busyTotal += busy
	o.acct.bytesTotal += int64(n)
	o.acct.sends++
	if demand {
		o.acct.busyDemand += busy
		o.acct.bytesDemand += int64(n)
	}
	o.waits = append(o.waits, start-now)
	rec := o.rec
	o.mu.Unlock()
	if rec != nil {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		base := o.epoch.UnixNano()
		rec.add(span{Kind: kindLinkQueue, Parent: parent, Start: base + secNanos(now), End: base + secNanos(start)})
		rec.add(span{Kind: kindLinkTx, Parent: parent, Start: base + secNanos(start), End: base + secNanos(end)})
	}
	sleepUntil(ctx, o.epoch.Add(time.Duration(end*1e9)+o.prop))
}

func secNanos(s float64) int64 { return int64(s * 1e9) }

// object resolves an id to its payload.
func (o *origin) object(id int64) ([]byte, bool) {
	if id < 0 || id >= int64(len(o.payloads)) {
		return nil, false
	}
	return o.payloads[id], true
}

func (o *origin) handleObj(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(strings.TrimPrefix(r.URL.Path, "/obj/"), 10, 64)
	if err != nil {
		http.Error(w, "bad id", http.StatusBadRequest)
		return
	}
	body, ok := o.object(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	o.transmit(r.Context(), r, len(body), o.demand(r, []fetch.ID{fetch.ID(id)}))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a client that went away is not the origin's error
}

func (o *origin) handleBatch(w http.ResponseWriter, r *http.Request) {
	ids, err := httpfetch.ParseIDs(r.URL.Query().Get("ids"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n := 0
	for _, id := range ids {
		body, ok := o.object(int64(id))
		if !ok {
			http.NotFound(w, r)
			return
		}
		n += batchHeaderLen + len(body)
	}
	o.transmit(r.Context(), r, n, o.demand(r, ids))
	w.Header().Set("Content-Length", strconv.Itoa(n))
	for _, id := range ids {
		body, _ := o.object(int64(id))
		if err := httpfetch.WriteBatchItem(w, id, body); err != nil {
			return // client went away
		}
	}
}

// batchHeaderLen is the batch wire's per-record header: an 8-byte id
// and a 4-byte length.
const batchHeaderLen = 12

// linkWindow is what the origin measured over one window.
type linkWindow struct {
	utilTotal, utilDemand float64
	specBytesRatio        float64
	waitP50ms, waitP99ms  float64
	waitTail              float64
	sends                 int64
}

// window reports utilisation and queue waits between two snapshots
// taken seconds apart.
func (o *origin) window(a, b linkAcct, seconds float64) linkWindow {
	waits := o.waitsBetween(a, b)
	for i := range waits {
		waits[i] *= 1e3
	}
	d := summarize(waits, 99)
	bytes := b.bytesTotal - a.bytesTotal
	demand := b.bytesDemand - a.bytesDemand
	return linkWindow{
		utilTotal:      (b.busyTotal - a.busyTotal) / seconds,
		utilDemand:     (b.busyDemand - a.busyDemand) / seconds,
		specBytesRatio: ratio(float64(bytes-demand), float64(bytes)),
		waitP50ms:      d.P50,
		waitP99ms:      d.PTail,
		waitTail:       d.Tail,
		sends:          b.sends - a.sends,
	}
}

// pendingSet counts the client requests in flight per id.
type pendingSet struct {
	mu sync.Mutex
	n  map[int64]int32
}

func newPendingSet() *pendingSet { return &pendingSet{n: make(map[int64]int32)} }

func (p *pendingSet) add(ids ...int64) {
	p.mu.Lock()
	for _, id := range ids {
		p.n[id]++
	}
	p.mu.Unlock()
}

func (p *pendingSet) done(ids ...int64) {
	p.mu.Lock()
	for _, id := range ids {
		if p.n[id]--; p.n[id] <= 0 {
			delete(p.n, id)
		}
	}
	p.mu.Unlock()
}

func (p *pendingSet) has(id int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[id] > 0
}
