package prefetcher

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/prefetcher/fetch"
)

// The request pipeline is one driver behind every entry point. These
// tests replay a recorded trace on one goroutine, deterministically
// (manual clock, one shard, one worker, speculative fetches held until
// the call that planned them returns, Quiesce after every call), and
// check two things: every entry point leaves the engine in the same
// state, on a plain engine and on a fetch-fabric one, and the §4 ĥ′
// estimate — counted from the shards' prefetched-unused bit —
// reproduces the values the engine reported when a separate tag map
// tracked the same fact.

// entryPoint serves one request through a public entry point.
type entryPoint func(ctx context.Context, e *Engine, id ID) error

var entryPoints = map[string]entryPoint{
	"Get": func(ctx context.Context, e *Engine, id ID) error {
		_, err := e.Get(ctx, id)
		return err
	},
	"GetBytes": func(ctx context.Context, e *Engine, id ID) error {
		_, err := e.GetBytes(ctx, id, nil)
		return err
	},
	"GetBytesLen": func(ctx context.Context, e *Engine, id ID) error {
		_, err := e.GetBytesLen(ctx, id)
		return err
	},
	"GetMulti": func(ctx context.Context, e *Engine, id ID) error {
		_, err := e.GetMulti(ctx, []ID{id})
		return err
	},
	"GetMultiBytes": func(ctx context.Context, e *Engine, id ID) error {
		_, _, err := e.GetMultiBytes(ctx, []ID{id}, nil, nil)
		return err
	},
}

// demandKey marks the replay's own context. Demand fetches run under
// it; speculative ones run under the engine's context.
type demandKey struct{}

// specGate holds speculative fetches while the replay's current call
// runs. Without it the worker could land (and evict with) an early
// candidate while the call is still deduplicating its later candidates
// against the cache, and the counters would depend on scheduling.
type specGate struct{ mu sync.Mutex }

// item serves id's payload; a speculative fetch first waits for the
// current call to return.
func (g *specGate) item(ctx context.Context, id ID) Item {
	if ctx.Value(demandKey{}) == nil {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	return Item{ID: id, Size: 1, Data: []byte{byte(id)}}
}

// traceBackend is the replay's origin as a fetch-fabric backend: the
// same payloads as the plain fetcher, with a batch capability.
type traceBackend struct{ gate *specGate }

func (b traceBackend) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	it := b.gate.item(ctx, ID(id))
	return fetch.Item{ID: id, Size: it.Size, Data: it.Data}, nil
}

func (b traceBackend) FetchBatch(ctx context.Context, ids []fetch.ID) ([]fetch.Item, error) {
	out := make([]fetch.Item, len(ids))
	for i, id := range ids {
		out[i], _ = b.Fetch(ctx, id)
	}
	return out, nil
}

// replayTrace1k drives the recorded 1k-request trace through an engine
// with an LRU cache of the given capacity — a plain engine, or with
// fabric set one whose origin is a single batch-capable fetch-fabric
// backend — calling calls[i%len(calls)] for request i, and returns the
// quiesced Stats.
func replayTrace1k(t *testing.T, capacity int, fabric bool, calls ...entryPoint) Stats {
	t.Helper()
	f, err := os.Open("../cmd/prefetchbench/testdata/trace1k.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := workload.NewTraceReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	clk := NewManualClock(start)
	gate := &specGate{}
	var fetcher Fetcher = FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return gate.item(ctx, id), nil
	})
	opts := []Option{
		WithBandwidth(1e9),
		WithClock(clk),
		WithShards(1),
		WithWorkers(1),
		WithCache(NewLRUCache(capacity)),
	}
	if fabric {
		fetcher = nil
		opts = append(opts, WithBackends(fetch.Backend{Name: "origin", Fetcher: traceBackend{gate}, Bandwidth: 1e9}))
	}
	eng, err := New(fetcher, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.WithValue(context.Background(), demandKey{}, true)
	for i, r := range recs {
		if d := start.Add(time.Duration(r.Time * float64(time.Second))).Sub(clk.Now()); d > 0 {
			clk.Advance(d)
		}
		gate.mu.Lock()
		err := calls[i%len(calls)](ctx, eng, ID(r.Item))
		gate.mu.Unlock()
		if err != nil {
			t.Fatalf("request %d (id %d): %v", i, r.Item, err)
		}
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return eng.Stats()
}

// pipelineState is the part of Stats every entry point must agree on
// (the session counters differ by construction).
type pipelineState struct {
	Requests, Hits, Misses, Joins                                              int64
	PrefetchIssued, PrefetchUsed, PrefetchWasted, PrefetchDropped, PrefetchErr int64
	CacheLen, InFlight                                                         int
	Lambda, MeanSize, HPrime, RhoPrime, NF, Threshold                          float64
}

func stateOf(s Stats) pipelineState {
	return pipelineState{
		Requests: s.Requests, Hits: s.Hits, Misses: s.Misses, Joins: s.Joins,
		PrefetchIssued: s.PrefetchIssued, PrefetchUsed: s.PrefetchUsed,
		PrefetchWasted: s.PrefetchWasted, PrefetchDropped: s.PrefetchDropped,
		PrefetchErr: s.PrefetchErrors, CacheLen: s.CacheLen, InFlight: s.InFlight,
		Lambda: s.Lambda, MeanSize: s.MeanSize, HPrime: s.HPrime,
		RhoPrime: s.RhoPrime, NF: s.NF, Threshold: s.Threshold,
	}
}

// TestEntryPointParity: Get, GetBytes, GetBytesLen and one-key
// GetMulti/GetMultiBytes sessions are one pipeline — the same replay
// through each leaves identical counters and estimates, on a plain
// engine and on a fetch-fabric one — and only the GetMulti* calls count
// as sessions in Stats.MultiGets.
func TestEntryPointParity(t *testing.T) {
	for _, fabric := range []bool{false, true} {
		got := replayTrace1k(t, 16, fabric, entryPoints["Get"])
		want := stateOf(got)
		if want.Requests != 1000 || want.Hits == 0 || want.PrefetchUsed == 0 {
			t.Fatalf("fabric=%v: replay did not exercise the pipeline: %+v", fabric, want)
		}
		if fabric && got.Backends[0].BatchCalls == 0 {
			t.Fatalf("fabric replay made no speculative batch call: %+v", got.Backends[0])
		}
		if got.MultiGets != 0 {
			t.Errorf("fabric=%v: Get counted %d sessions, want 0", fabric, got.MultiGets)
		}
		for _, name := range []string{"GetBytes", "GetBytesLen", "GetMulti", "GetMultiBytes"} {
			s := replayTrace1k(t, 16, fabric, entryPoints[name])
			if got := stateOf(s); got != want {
				t.Errorf("fabric=%v: %s diverges from Get:\n got %+v\nwant %+v", fabric, name, got, want)
			}
			sessions := int64(0)
			if strings.HasPrefix(name, "GetMulti") {
				sessions = 1000
			}
			if s.MultiGets != sessions {
				t.Errorf("fabric=%v: %s counted %d sessions, want %d", fabric, name, s.MultiGets, sessions)
			}
		}
	}
}

// TestHPrimeTrace1kPinned pins ĥ′ and the prefetch counters on the
// recorded trace, for calls rotating Get → GetBytes → GetMulti. The
// values were measured with the engine's earlier ĥ′ bookkeeping, a
// per-id tag map kept beside the shards' unused markers.
func TestHPrimeTrace1kPinned(t *testing.T) {
	cases := []struct {
		capacity                             int
		hPrime                               float64
		requests, hits, used, wasted, issued int64
	}{
		{16, 0.221, 1000, 787, 566, 469, 1045},
		{64, 0.614, 1000, 839, 225, 113, 364},
	}
	for _, c := range cases {
		s := replayTrace1k(t, c.capacity, false, entryPoints["Get"], entryPoints["GetBytes"], entryPoints["GetMulti"])
		t.Logf("LRU %d: %+v", c.capacity, stateOf(s))
		if s.HPrime != c.hPrime {
			t.Errorf("LRU %d: ĥ′ = %v, want %v", c.capacity, s.HPrime, c.hPrime)
		}
		got := [5]int64{s.Requests, s.Hits, s.PrefetchUsed, s.PrefetchWasted, s.PrefetchIssued}
		want := [5]int64{c.requests, c.hits, c.used, c.wasted, c.issued}
		if got != want {
			t.Errorf("LRU %d: requests/hits/used/wasted/issued = %v, want %v", c.capacity, got, want)
		}
	}
}
