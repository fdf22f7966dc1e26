package prefetcher

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// counter is an atomic counter padded out to its own cache line, so
// adjacent counters bumped from different goroutines never false-share.
// The per-shard counters below are counter values: a bump is one atomic
// add that needs no shard mutex, which keeps accounting off the shard's
// critical sections entirely and makes Stats a wait-free snapshot.
//
//prefetch:cacheline
type counter struct {
	atomic.Int64
	_ [56]byte // 64-byte line minus the 8-byte count
}

// shard is one partition of the engine's keyed hot-path state. Every ID
// maps to exactly one shard (shardFor), and everything guarded by mu —
// the cache, the in-flight table, the per-entry size and unused-prefetch
// records — is only ever touched while holding that shard's mutex, so
// requests for keys in different shards never contend. The counters are
// padded atomics bumped outside the mutex: a Get's critical section is
// just the cache/in-flight/entry-map touches. The estimates that must stay
// globally consistent (λ̂, ŝ̄, ĥ′, n̄(F) and hence the threshold) live
// outside the shards, in the engine's shared prefetch.Controller, whose
// counters are contention-safe atomics.
//
// Lock ordering: a goroutine holds at most one shard mutex at a time.
// While holding it, it may take the engine's quiesce lock (shard →
// qmu) and no other; nothing ever takes a shard mutex while holding
// qmu, so the order is acyclic. The shard's cache eviction callback runs synchronously from
// Put — i.e. under this shard's mutex — and only touches this shard's
// state, which is what makes per-shard caches (rather than one shared
// instance) load-bearing for deadlock freedom.
type shard struct {
	mu sync.Mutex

	cache Cache
	// bcache is cache when it additionally implements ByteCache (the
	// slab-backed byte store does), nil otherwise; the GetBytes fast
	// path type-asserts once at construction instead of per request.
	bcache ByteCache
	// inflight is kept apart from entries: it is short-lived and holds
	// pointers, and folding it in would make the GC scan the whole
	// resident map.
	inflight map[ID]*flight
	// entries holds one pointer-free record per resident item (see
	// entry), so a hit is one map probe and an eviction one delete.
	entries map[ID]entry

	// Hot-path counters: cache-line-padded atomics, bumped without the
	// shard mutex and summed wait-free by Stats. Each request bumps
	// requests before its outcome counter (hits or misses), and Stats
	// reads the outcome counters before requests, so the aggregate
	// invariants (Hits+Misses ≤ Requests, ratios ≤ 1) hold in every
	// mid-flight snapshot; quiesced snapshots are exact.
	requests, hits, misses, joins                                                 counter
	prefetchIssued, prefetchUsed, prefetchWasted, prefetchDropped, prefetchErrors counter
	// inflightN mirrors len(inflight) (updated under mu alongside the
	// map) so Stats can report in-flight fetches without the lock.
	inflightN counter
}

// entry is a resident item's record in its shard. size is the item's
// last fetched size, so hits can report it without refetching. unused
// marks a prefetched item not yet consumed by a demand request — the
// basis of the used/wasted accounting and of the §4 ĥ′ estimate, whose
// "untagged" entries are exactly these.
type entry struct {
	size   float64
	unused bool
}

// shardMapHint pre-sizes the per-shard maps so the first requests do
// not pay incremental map growth: the in-flight table stays small (it
// is bounded by concurrent fetches per shard), while entries grows
// toward the shard's cache capacity and reaches steady state quickly.
const shardMapHint = 64

func newShard(c Cache) *shard {
	bc, _ := c.(ByteCache)
	return &shard{
		cache:    c,
		bcache:   bc,
		inflight: make(map[ID]*flight, shardMapHint),
		entries:  make(map[ID]entry, shardMapHint),
	}
}

// hit is what a request served without a fetch of its own hands to
// the accounting tail (landHit): the payload when boxed, its recorded
// size, whether it consumed a prefetched-unused marker, and
// ErrNotBytes when a byte-mode sink could not take the payload.
type hit struct {
	data any
	size float64
	used bool
	err  error
}

// lookupLocked is the one hit lookup: when id is resident it lands the
// payload in s — a ByteCache serves byte modes without boxing, the slab
// view being stable only under the lock — then reads id's recorded
// size and consumes its unused marker, in one probe of the entry map
// unless the record has to be written back. A slab miss is not a cache
// miss: the entry may sit in the store's boxed overflow, so byte modes
// fall back to the boxed lookup.
// A resident payload the sink cannot take is still a hit, carrying
// ErrNotBytes. ok is false when id is not resident. Called with sh.mu
// held.
//
//prefetch:hotpath
func (sh *shard) lookupLocked(id ID, s *sink) (r hit, ok bool) {
	switch {
	case s.mode == sinkBytes && sh.bcache != nil:
		var out []byte
		if out, ok = sh.bcache.GetBytes(id, s.buf); ok {
			s.n, s.buf = len(out)-len(s.buf), out
		}
	case s.mode == sinkLen && sh.bcache != nil:
		s.n, ok = sh.bcache.BytesLen(id)
	}
	if !ok {
		if r.data, ok = sh.cache.Get(id); !ok {
			return hit{}, false
		}
		r.err = s.land(r.data)
	}
	en, recorded := sh.entries[id]
	if !recorded || en.unused {
		// A prewarmed entry the engine never fetched gets the fetch
		// paths' default size 1, memoised so ŝ̄ and repeated hits see a
		// consistent value; a prefetched entry's first use clears its
		// marker.
		if !recorded {
			en.size = 1
		}
		r.used = en.unused
		sh.entries[id] = entry{size: en.size}
	}
	r.size = en.size
	return r, true
}

// presentLocked reports whether id is resident or already in flight —
// either way it needs no speculative fetch. Called with sh.mu held.
//
//prefetch:hotpath
func (sh *shard) presentLocked(id ID) bool {
	_, inflight := sh.inflight[id]
	return inflight || sh.cache.Contains(id)
}

// consumeUnusedLocked clears id's prefetched-but-unused marker,
// reporting whether it was set — the caller charges prefetchUsed after
// releasing the lock. Called with sh.mu held.
//
//prefetch:hotpath
func (sh *shard) consumeUnusedLocked(id ID) bool {
	en, ok := sh.entries[id]
	if !ok || !en.unused {
		return false
	}
	sh.entries[id] = entry{size: en.size}
	return true
}

// shardFor routes an id to its owning shard. The multiplicative hash
// (Fibonacci hashing) spreads the dense sequential ids that interned key
// spaces produce; taking the top bits keeps the map uniform for any
// power-of-two shard count. With one shard the shift is 64 and the index
// is always 0.
//
//prefetch:hotpath
func (e *Engine) shardFor(id ID) *shard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return e.shards[h>>e.shardShift]
}

// nextPow2 rounds n up to the next power of two (n >= 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// defaultShards derives the default shard count from GOMAXPROCS: the
// smallest power of two covering the available parallelism, capped so a
// huge machine does not fragment the default cache into slivers.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	return nextPow2(n)
}

// putCache inserts data under id in the shard's cache and keeps the
// engine's live resident count in step: +1 when the id is newly
// admitted, and every eviction — whether triggered by this Put or by
// any other cache call — is debited by the shard's eviction callback
// (onEvict), so the counter stays correct for any Cache that reports
// its evictions. Called with sh.mu held.
//
//prefetch:hotpath
func (e *Engine) putCache(sh *shard, id ID, data any) {
	fresh := !sh.cache.Contains(id)
	sh.cache.Put(id, data)
	if fresh {
		e.residents.Add(1)
	}
}

// onEvict wires one shard's cache eviction stream into the engine: the
// live resident count is debited, the entry record is dropped, and a
// prefetched-but-never-used entry is charged as wasted (its unused
// marker, the §4 estimator's untag, goes with it). The callback runs synchronously from whichever
// cache call evicts — always under this shard's mutex, since every
// cache call happens there.
func (e *Engine) onEvict(sh *shard) func(ID) {
	return func(id ID) {
		e.residents.Add(-1)
		if sh.entries[id].unused {
			sh.prefetchWasted.Add(1)
		}
		delete(sh.entries, id)
	}
}
