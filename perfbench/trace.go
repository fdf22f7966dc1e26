package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/prefetcher"
	"repro/prefetcher/fetch"
)

// spanKind names the seam a span was recorded at. Every seam belongs to
// the benchmark: the engine call it makes, the Fetcher it hands the
// engine, the RoundTripper it hands httpfetch, and its own origin's
// link.
type spanKind uint8

const (
	kindEngine    spanKind = iota // a Get/GetBytes/GetMultiBytes call
	kindFetch                     // a backend Fetch/FetchBatch call
	kindRT                        // an HTTP round trip, body included
	kindLinkQueue                 // a reply waiting for the link
	kindLinkTx                    // a reply on the link
)

var kindNames = [...]string{"engine", "fetch", "rt", "link.queue", "link.tx"}

// span is one timed interval. Parent is the causing span (0 for a root:
// an engine call, or a speculative fetch the engine started itself).
type span struct {
	ID, Parent int64
	Kind       spanKind
	Demand     bool
	Failed     bool
	Reused     bool // round trip on a reused connection
	Batch      bool // a FetchBatch call
	Keys       int32
	Start, End int64 // Unix nanoseconds
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Past max spans it
// keeps counting but stops storing.
type recorder struct {
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	max     int
	dropped int64
}

func newRecorder(max int) *recorder {
	return &recorder{spans: make([]span, 0, 1<<16), max: max}
}

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	if len(r.spans) < r.max {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// reset drops every span recorded so far, so a run keeps only its
// measured window.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.dropped = 0
	r.mu.Unlock()
}

// all returns the recorded spans.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// write dumps up to limit spans as tab-separated text, one per line.
func (r *recorder) write(path string, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "id\tparent\tkind\tdemand\tfailed\treused\tbatch\tkeys\tstart_ns\tend_ns\n")
	spans := r.all()
	if len(spans) > limit {
		spans = spans[:limit]
	}
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%t\t%t\t%t\t%t\t%d\t%d\t%d\n",
			s.ID, s.Parent, kindNames[s.Kind], s.Demand, s.Failed, s.Reused, s.Batch, s.Keys, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanCtx is the span a context carries down the call: the engine call
// (demand) or a fetch on its behalf.
type spanCtx struct {
	id     int64
	demand bool
}

type spanKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// fetchSpan times one backend call made with ctx. A fetch is demand when
// ctx carries a span from an engine call; the engine's own speculative
// fetches run on its lifecycle context and carry none.
func fetchSpan(rec *recorder, ctx context.Context, keys int, batch bool, call func(ctx context.Context) error) {
	parent := spanFrom(ctx)
	id := rec.newID()
	ctx = withSpan(ctx, spanCtx{id: id, demand: parent.id != 0})
	t0 := time.Now().UnixNano()
	err := call(ctx)
	rec.add(span{ID: id, Parent: parent.id, Kind: kindFetch, Demand: parent.id != 0, Failed: err != nil,
		Batch: batch, Keys: int32(keys), Start: t0, End: time.Now().UnixNano()})
}

// spanFetcher wraps a backend without batch support.
type spanFetcher struct {
	inner fetch.Fetcher
	rec   *recorder
}

func (f spanFetcher) Fetch(ctx context.Context, id fetch.ID) (it fetch.Item, err error) {
	fetchSpan(f.rec, ctx, 1, false, func(ctx context.Context) error {
		it, err = f.inner.Fetch(ctx, id)
		return err
	})
	return it, err
}

// spanBatchFetcher wraps a batch-capable backend and stays batch-capable,
// so the engine takes the same paths as without the wrapper.
type spanBatchFetcher struct {
	spanFetcher
	batch fetch.BatchFetcher
}

func (f spanBatchFetcher) FetchBatch(ctx context.Context, ids []fetch.ID) (items []fetch.Item, err error) {
	fetchSpan(f.rec, ctx, len(ids), true, func(ctx context.Context) error {
		items, err = f.batch.FetchBatch(ctx, ids)
		return err
	})
	return items, err
}

// wrapBackend returns a span-recording wrapper with the same batch
// capability as inner.
func wrapBackend(inner fetch.Fetcher, rec *recorder) fetch.Fetcher {
	sf := spanFetcher{inner: inner, rec: rec}
	if bf, ok := inner.(fetch.BatchFetcher); ok {
		return spanBatchFetcher{spanFetcher: sf, batch: bf}
	}
	return sf
}

// spanPlainFetcher wraps the engine-lib's plain (non-fabric) fetcher.
type spanPlainFetcher struct {
	inner prefetcher.Fetcher
	rec   *recorder
}

func (f spanPlainFetcher) Fetch(ctx context.Context, id prefetcher.ID) (it prefetcher.Item, err error) {
	fetchSpan(f.rec, ctx, 1, false, func(ctx context.Context) error {
		it, err = f.inner.Fetch(ctx, id)
		return err
	})
	return it, err
}

// spanTransport is the RoundTripper handed to httpfetch. It times each
// round trip until the body is closed, notes connection reuse, and
// tells the origin the request's class and span.
type spanTransport struct {
	base          http.RoundTripper
	rec           *recorder
	conns, reused atomic.Int64
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	id := t.rec.newID()
	var reused bool
	ct := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		reused = info.Reused
		t.conns.Add(1)
		if info.Reused {
			t.reused.Add(1)
		}
	}}
	req = req.Clone(httptrace.WithClientTrace(req.Context(), ct))
	class := "spec"
	if parent.demand {
		class = "demand"
	}
	req.Header.Set(hdrClass, class)
	req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	t0 := time.Now().UnixNano()
	resp, err := t.base.RoundTrip(req)
	s := span{ID: id, Parent: parent.id, Kind: kindRT, Demand: parent.demand, Start: t0}
	if err != nil {
		s.Failed, s.End = true, time.Now().UnixNano()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		s.Reused, s.End = reused, time.Now().UnixNano()
		t.rec.add(s)
	}}
	return resp, nil
}

// spanBody ends its round-trip span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
