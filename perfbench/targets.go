package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/prefetcher"
	"repro/prefetcher/bytestore"
	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

// segmentBytes is the slab segment size of every slab-backed workload.
const segmentBytes = 64 << 10

// daemonArgs is the prefetchd command line for a workload: one space
// over the benchmark's origin, the same composition newStackEngine
// builds in process.
func daemonArgs(spec workloadSpec, originURL string) []string {
	args := []string{
		"-origin", originURL,
		"-cache", strconv.Itoa(spec.cache), "-cache-policy", "lru",
		"-cache-bytes", strconv.Itoa(spec.slab), "-segment-bytes", strconv.Itoa(segmentBytes),
		"-predictor", "markov", "-policy", "adaptive-a",
		"-bandwidth", strconv.FormatFloat(spec.bandwidth, 'g', -1, 64),
	}
	if spec.batch {
		args = append(args, "-origin-batch-path", "/batch")
	}
	return args
}

// newStackEngine builds in process what daemonArgs configures prefetchd
// to build, from the same public constructors. With rec set, the
// backend and its HTTP transport record spans.
func newStackEngine(spec workloadSpec, originURL string, rec *recorder) (*prefetcher.Engine, *spanTransport, error) {
	var rt http.RoundTripper = httpfetch.NewTransport()
	var st *spanTransport
	if rec != nil {
		st = &spanTransport{base: rt, rec: rec}
		rt = st
	}
	cfg := httpfetch.Config{BaseURL: originURL, Client: &http.Client{Transport: rt}}
	if spec.batch {
		cfg.BatchPath = "/batch"
	}
	client, err := httpfetch.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var f fetch.Fetcher = client
	if rec != nil {
		f = wrapBackend(client, rec)
	}
	factory, err := bytestore.Factory(bytestore.Config{
		CapacityBytes: spec.slab, MaxEntries: spec.cache, SegmentBytes: segmentBytes, Policy: "lru",
	})
	if err != nil {
		return nil, nil, err
	}
	eng, err := prefetcher.New(nil,
		prefetcher.WithBackends(fetch.Backend{Name: "origin", Fetcher: f}),
		prefetcher.WithCacheFactory(factory),
		prefetcher.WithPredictor(prefetcher.NewMarkovPredictor()),
		prefetcher.WithPolicy(prefetcher.AdaptiveThreshold(prefetcher.ModelA())),
		prefetcher.WithBandwidth(spec.bandwidth),
	)
	return eng, st, err
}

// newLibEngine builds engine-lib's composition: prefetcher.New over a
// plain in-process fetcher that answers at once, with the library
// defaults (Markov predictor, adaptive threshold under model A, wall
// clock) and its default LRU cache sized to spec.cache in total.
func newLibEngine(spec workloadSpec, payloads [][]byte, rec *recorder, fetched *atomic.Int64) (*prefetcher.Engine, error) {
	var f prefetcher.Fetcher = prefetcher.FetcherFunc(func(_ context.Context, id prefetcher.ID) (prefetcher.Item, error) {
		fetched.Add(1)
		if id < 0 || int(id) >= len(payloads) {
			return prefetcher.Item{}, fmt.Errorf("no object %d", id)
		}
		p := payloads[id]
		return prefetcher.Item{ID: id, Size: float64(len(p)), Data: p}, nil
	})
	if rec != nil {
		f = spanPlainFetcher{inner: f, rec: rec}
	}
	total := spec.cache
	return prefetcher.New(f,
		prefetcher.WithCacheFactory(func(_, shards int) prefetcher.Cache {
			return prefetcher.NewLRUCache((total + shards - 1) / shards)
		}),
		prefetcher.WithBandwidth(spec.bandwidth),
	)
}

// daemonTarget drives prefetchd over HTTP.
type daemonTarget struct {
	d       *daemon
	lc      *loadClient
	ver     verifier
	pending *pendingSet
	batch   bool
	bufs    [clients][]byte
}

func objPath(keys []int64, batch bool) string {
	if !batch {
		return "/obj/" + strconv.FormatInt(keys[0], 10)
	}
	var sb strings.Builder
	sb.WriteString("/batch?ids=")
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(k, 10))
	}
	return sb.String()
}

func (t *daemonTarget) get(ctx context.Context, w int, keys []int64) (int, error) {
	t.pending.add(keys...)
	body, err := t.lc.get(ctx, objPath(keys, t.batch), t.bufs[w])
	t.pending.done(keys...)
	t.bufs[w] = body
	if err != nil {
		return 0, err
	}
	if !t.batch {
		return len(body), t.ver.object(keys[0], body)
	}
	ids := make([]fetch.ID, len(keys))
	n := 0
	for i, k := range keys {
		ids[i] = fetch.ID(k)
		n += len(t.ver.payloads[k])
	}
	if err := t.ver.batch(ids, body); err != nil {
		return 0, err
	}
	return n, nil
}

func (t *daemonTarget) snap(ctx context.Context) (tsnap, error) {
	st, err := t.d.stats(ctx)
	if err != nil {
		return tsnap{}, err
	}
	cpu, err := t.d.cpu()
	return tsnap{stats: st, cpu: cpu, gcs: t.d.gcs.Load()}, err
}

// stackTarget drives the in-process stack through the engine's byte
// path, as prefetchd's handlers do. With rec set, every call is an
// engine span whose context its backend fetches inherit.
type stackTarget struct {
	eng     *prefetcher.Engine
	ver     verifier
	pending *pendingSet
	batch   bool
	rec     *recorder
	bufs    [clients][]byte
	ranges  [clients][]prefetcher.ByteRange
	ids     [clients][]prefetcher.ID
}

func (t *stackTarget) get(ctx context.Context, w int, keys []int64) (int, error) {
	var sp span
	if t.rec != nil {
		sp = span{ID: t.rec.newID(), Kind: kindEngine, Demand: true, Keys: int32(len(keys))}
		ctx = withSpan(ctx, spanCtx{id: sp.ID, demand: true})
		sp.Start = time.Now().UnixNano()
	}
	t.pending.add(keys...)
	n, err := t.call(ctx, w, keys)
	t.pending.done(keys...)
	if t.rec != nil {
		sp.End, sp.Failed = time.Now().UnixNano(), err != nil
		t.rec.add(sp)
	}
	return n, err
}

func (t *stackTarget) call(ctx context.Context, w int, keys []int64) (int, error) {
	if !t.batch {
		data, err := t.eng.GetBytes(ctx, prefetcher.ID(keys[0]), t.bufs[w][:0])
		t.bufs[w] = data
		if err != nil {
			return 0, err
		}
		return len(data), t.ver.object(keys[0], data)
	}
	ids := t.ids[w][:0]
	for _, k := range keys {
		ids = append(ids, prefetcher.ID(k))
	}
	t.ids[w] = ids
	buf, ranges, err := t.eng.GetMultiBytes(ctx, ids, t.bufs[w][:0], t.ranges[w][:0])
	t.bufs[w], t.ranges[w] = buf, ranges
	if err != nil {
		return 0, err
	}
	n := 0
	for i, rg := range ranges {
		if err := t.ver.object(keys[i], buf[rg.Off:rg.Off+rg.Len]); err != nil {
			return 0, err
		}
		n += rg.Len
	}
	return n, nil
}

func (t *stackTarget) snap(context.Context) (tsnap, error) {
	return tsnap{stats: t.eng.Stats(), cpu: selfCPU(), rt: readRuntime()}, nil
}

func (t *stackTarget) windowStart() {
	if t.rec != nil {
		t.rec.reset()
	}
}

// engineTarget drives engine-lib through Get.
type engineTarget struct {
	eng *prefetcher.Engine
	ver verifier
	rec *recorder
}

func (t *engineTarget) get(ctx context.Context, _ int, keys []int64) (int, error) {
	var sp span
	if t.rec != nil {
		sp = span{ID: t.rec.newID(), Kind: kindEngine, Demand: true, Keys: 1}
		ctx = withSpan(ctx, spanCtx{id: sp.ID, demand: true})
		sp.Start = time.Now().UnixNano()
	}
	it, err := t.eng.Get(ctx, prefetcher.ID(keys[0]))
	if t.rec != nil {
		sp.End, sp.Failed = time.Now().UnixNano(), err != nil
		t.rec.add(sp)
	}
	if err != nil {
		return 0, err
	}
	data, _ := it.Data.([]byte)
	if it.ID != prefetcher.ID(keys[0]) {
		return 0, fmt.Errorf("Get(%d) returned item %d: %w", keys[0], it.ID, errMismatch)
	}
	return len(data), t.ver.object(keys[0], data)
}

func (t *engineTarget) snap(context.Context) (tsnap, error) {
	return tsnap{stats: t.eng.Stats(), cpu: selfCPU(), rt: readRuntime()}, nil
}

func (t *engineTarget) windowStart() {
	if t.rec != nil {
		t.rec.reset()
	}
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSnap is this process's allocation and GC CPU counters.
type runtimeSnap struct {
	mallocs         uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	rs := runtimeSnap{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rs.totalCPU = s[1].Value.Float64()
	}
	return rs
}
