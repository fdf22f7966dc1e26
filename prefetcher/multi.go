package prefetcher

import (
	"context"
	"fmt"

	"repro/prefetcher/fetch"
)

// This file is the engine's one request driver. Every entry point —
// Get, GetBytes, GetBytesLen, GetMulti, GetMultiInto, GetMultiBytes —
// runs a session of keys through it; a singleton is the one-key case.
// The work splits into four layers: the predictor observes the
// session's ids as one linearised sequence, so the Markov chain sees
// the same stream N singleton Gets would have produced; a shard gather
// classifies every key hit/join/miss taking each shard lock once;
// owned misses travel to each backend as a single demand batch
// (FetchBatch), and joined keys await the flight they attached to;
// served keys land in the request's sink and one speculative plan is
// made from the session's last id. All per-request scratch is pooled;
// the hit path allocates nothing in steady state (gated by
// TestGetHitAllocFree and TestGetMultiAllocFree).

// KeyError reports the failure of one key of a GetMulti session.
type KeyError struct {
	// Index is the key's position in the session's ids slice; ID the
	// key itself.
	Index int
	ID    ID
	// Err is the per-key cause (an origin error, the caller's context
	// error, or ErrClosed).
	Err error
}

// Error implements error.
func (k KeyError) Error() string {
	return fmt.Sprintf("prefetcher: key %d (index %d): %v", k.ID, k.Index, k.Err)
}

// Unwrap exposes the per-key cause to errors.Is/As.
func (k KeyError) Unwrap() error { return k.Err }

// MultiError aggregates the failed keys of a GetMulti session. The
// session's other keys were served normally — the caller decides
// per key whether a zero Item matters.
type MultiError struct {
	// Errors holds one entry per failed key, in session order.
	Errors []KeyError
}

// Error implements error.
func (m *MultiError) Error() string {
	if len(m.Errors) == 1 {
		return m.Errors[0].Error()
	}
	return fmt.Sprintf("prefetcher: %d keys failed (first: %v)", len(m.Errors), m.Errors[0])
}

// Unwrap exposes the per-key errors to errors.Is/As.
func (m *MultiError) Unwrap() []error {
	errs := make([]error, len(m.Errors))
	for i, k := range m.Errors {
		errs[i] = k
	}
	return errs
}

// multiKey classification states. A key moves mkPending → one of
// hit/join/owner in the gather; a joined or owned key moves to mkDone
// once its item or error is final. A key the gather finds the engine
// closed for goes straight to mkDone with ErrClosed.
const (
	mkPending uint8 = iota
	mkHit           // served from cache inside the gather's critical section
	mkJoin          // attached to a flight another request owns
	mkOwner         // this request owns the flight and fetches it
	mkDone          // fetched or joined: item/err final
)

// multiKey is one session key's classification and outcome: the
// served item (zero when the key failed) or the key's error, and the
// payload's place in a byte-mode sink, s.buf[off : off+blen] (blen
// alone in length mode).
type multiKey struct {
	sh        *shard
	f         *flight
	item      Item
	err       error
	off, blen int
	backend   int32
	kind      uint8
	used      bool // hit consumed a prefetched-unused entry
}

// settle records a joined or fetched key's final outcome.
//
//prefetch:hotpath
func (k *multiKey) settle(item Item, err error) {
	k.item, k.err, k.kind = item, err, mkDone
}

// reqScratch is the pooled per-request state every entry point draws:
// the prediction candidate buffers, the per-key classification table
// and the staging buffers for batch dispatch and the fabric's type
// conversion. A singleton's id slice and key live inline, so a one-key
// request needs no table growth. Nothing retains any of it past the
// request (jobs carry ids, not candidate slices). Pooling it is what
// keeps the hit path allocation-free.
type reqScratch struct {
	candBufs
	one    [1]ID
	key1   [1]multiKey // keys' initial backing
	keys   []multiKey
	gids   []ID  // one backend's share of the owned misses
	gidx   []int // indices into keys, aligned with gids
	bout   []Item
	berrs  []error
	fids   []fetch.ID
	fitems []fetch.Item
	ferrs  []error
}

//prefetch:hotpath
func (e *Engine) getScratch() *reqScratch { return e.reqPool.Get().(*reqScratch) }

// putScratch clears the payload, flight and error references the
// request staged (pooled scratch must not pin cached data or resolved
// flights) and returns the scratch to the pool. The batch staging
// buffers are cleared where they are used.
//
//prefetch:hotpath
func (e *Engine) putScratch(sc *reqScratch) {
	clear(sc.keys)
	sc.keys = sc.keys[:0]
	e.reqPool.Put(sc)
}

// getOne serves one id as a one-key session and returns the key's own
// outcome — never a *MultiError. The payload lands in s.
//
//prefetch:hotpath
func (e *Engine) getOne(ctx context.Context, id ID, s *sink) (Item, error) {
	sc := e.getScratch()
	sc.one[0] = id
	var item Item
	err := e.session(ctx, sc.one[:], sc, s)
	if err == nil {
		item, err = sc.keys[0].item, sc.keys[0].err
	}
	e.putScratch(sc)
	return item, err
}

// session is the one request driver: it observes the session's ids,
// gathers them under each shard lock once, fetches the misses, lands
// every served payload in s and plans speculation once, from the
// session's last id — only when at least one key was served, since a
// request that failed outright accessed nothing. A served key whose
// payload the sink cannot take (ErrNotBytes) still counts: the access
// happened. The returned error is request-level (a dead context or a
// closed engine, before any key was counted); per-key outcomes land in
// sc.keys, index-aligned with ids.
//
//prefetch:hotpath
func (e *Engine) session(ctx context.Context, ids []ID, sc *reqScratch, s *sink) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.closed.Load() {
		return ErrClosed
	}
	if len(ids) == 0 {
		return nil
	}
	now := e.now()
	cands := e.pred.observeSession(ids, e.maxPrefetch, &sc.candBufs)
	if e.gather(ids, now, sc, s) > 0 {
		e.fetchMisses(ctx, ids, sc)
	}
	served := false
	for i := range sc.keys {
		k := &sc.keys[i]
		switch {
		case k.kind == mkHit: // landed in s inside the gather
		case k.err == nil: // fetched or joined: the payload lands now
			k.off = len(s.buf)
			k.err = s.land(k.item.Data)
			k.blen = s.n
		default:
			continue
		}
		served = true
	}
	if served {
		e.schedule(cands)
	}
	return nil
}

// finishSession counts a GetMulti* session and reports its failed
// keys: nil when every key was served, else a *MultiError.
//
//prefetch:hotpath
func (e *Engine) finishSession(ids []ID, keys []multiKey) error {
	if len(ids) == 0 {
		return nil
	}
	e.multiGets.Add(1)
	nerr := 0
	for i := range keys {
		if keys[i].err != nil {
			nerr++
		}
	}
	if nerr == 0 {
		return nil
	}
	return buildMultiError(ids, keys, nerr)
}

// GetMulti serves one session of correlated demand keys and returns
// one Item per id, index-aligned with ids. Keys resident in cache are
// served under a single pass over the shards; missing keys are
// coalesced per backend into demand FetchBatch calls (joining any
// in-flight fetches, so concurrent sessions and singleton Gets for the
// same key share one origin call). Failures are per key: the returned
// error is nil when every key was served, else a *MultiError listing
// the failed keys — whose Items are zero — while the rest of the
// session is intact. The predictor observes the session's ids as one
// linearised sequence and speculative planning happens once, from the
// session's last id, when at least one key was served.
func (e *Engine) GetMulti(ctx context.Context, ids []ID) ([]Item, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	return e.GetMultiInto(ctx, ids, make([]Item, 0, len(ids)))
}

// GetMultiInto is GetMulti appending into a caller-supplied buffer
// (passed as dst[:0] semantics: dst is truncated and one Item per id
// appended), so steady-state callers reusing their result slice keep
// the all-hit session allocation-free.
//
//prefetch:hotpath
func (e *Engine) GetMultiInto(ctx context.Context, ids []ID, dst []Item) ([]Item, error) {
	dst = dst[:0]
	var s sink
	sc := e.getScratch()
	err := e.session(ctx, ids, sc, &s)
	if err == nil {
		for i := range sc.keys {
			dst = append(dst, sc.keys[i].item)
		}
		err = e.finishSession(ids, sc.keys)
	}
	e.putScratch(sc)
	return dst, err
}

// buildMultiError assembles the session's per-key error report. Only
// reached when at least one key failed, so its allocations never touch
// the all-hit path.
func buildMultiError(ids []ID, keys []multiKey, nerr int) error {
	//lint:allow hotpathalloc error construction on the per-key failure path only
	errs := make([]KeyError, 0, nerr)
	for i := range ids {
		if keys[i].err != nil {
			//lint:allow hotpathalloc error construction on the per-key failure path only
			errs = append(errs, KeyError{Index: i, ID: ids[i], Err: keys[i].err})
		}
	}
	//lint:allow hotpathalloc error construction on the per-key failure path only
	return &MultiError{Errors: errs}
}

// gather is the one per-key gather. It classifies the session's keys
// shard by shard: each pass takes one shard's lock once, re-checks the
// closed flag under it, and classifies every still-pending session key
// living there — hits land in s through the one hit lookup, inside that
// single critical section; misses either join the in-flight fetch for
// their key or register this request's own flight (a duplicate id later
// in the session joins that same flight — intra-session dedup falls out
// of the single-flight table). Counter bumps and estimator folds happen
// after the locks drop, on atomics, each key bumping requests before
// its outcome counter. A miss's arrival is recorded here, before any
// fetch is attempted: a demand fetch that errors (or a joiner whose
// context expires) is still an arrival, and skipping it would let λ̂
// and the controller's request count drift from Stats.Requests under
// origin failures; the fetch paths fold its size into ŝ̄ once the
// origin responds. Returns how many keys still need the miss path.
//
//prefetch:hotpath
func (e *Engine) gather(ids []ID, now float64, sc *reqScratch, s *sink) int {
	keys := sc.keys[:0]
	for range ids {
		keys = append(keys, multiKey{})
	}
	for i, id := range ids {
		keys[i].sh = e.shardFor(id)
	}
	sc.keys = keys
	for i := range keys {
		if keys[i].kind != mkPending {
			continue
		}
		sh := keys[i].sh
		sh.mu.Lock()
		closed := e.closed.Load()
		for j := i; j < len(keys); j++ {
			k := &keys[j]
			if k.kind != mkPending || k.sh != sh {
				continue
			}
			if closed {
				k.kind, k.err = mkDone, ErrClosed
				continue
			}
			id := ids[j]
			k.off = len(s.buf)
			if r, ok := sh.lookupLocked(id, s); ok {
				k.kind, k.used, k.err = mkHit, r.used, r.err
				k.item = Item{ID: id, Size: r.size, Data: r.data}
				k.blen = s.n
				continue
			}
			f, owner := sh.joinOrRegister(e, id)
			k.kind, k.f = mkJoin, f
			if owner {
				k.kind = mkOwner
			}
		}
		sh.mu.Unlock()
	}
	misses := 0
	for i := range keys {
		k := &keys[i]
		sh := k.sh
		switch k.kind {
		case mkDone:
			continue
		case mkHit:
			e.landHit(sh, ids[i], now, hit{size: k.item.Size, used: k.used}, true)
			continue
		}
		sh.requests.Add(1)
		sh.misses.Add(1)
		if k.kind == mkJoin {
			sh.joins.Add(1) // one count per request, however many flights it retries
		}
		e.ctrl.RecordRequest(now, 0)
		misses++
	}
	return misses
}

// fetchMisses serves the keys the gather could not: owned misses
// first — each backend's share of two or more as one coalesced demand
// batch, a lone one through the one-key demand fetch — then every
// joined key awaits the flight it attached to. Each owned key lands
// exactly as a singleton demand fetch would (complete: cache fill, size
// and estimator folds, flight resolution, per-key error).
//
//prefetch:hotpath
func (e *Engine) fetchMisses(ctx context.Context, ids []ID, sc *reqScratch) {
	keys := sc.keys
	if len(keys) > 1 {
		nb := 1
		if e.fabric != nil {
			nb = e.fabric.NumBackends()
			if nb > 1 {
				for i := range keys {
					if keys[i].kind == mkOwner {
						keys[i].backend = int32(e.fabric.Route(fetch.ID(ids[i])))
					}
				}
			}
		}
		for b := 0; b < nb; b++ {
			e.fetchBatch(ctx, b, ids, sc)
		}
	}
	for i := range keys {
		if k := &keys[i]; k.kind == mkOwner {
			k.settle(e.demandFetch(ctx, ids[i], k.f))
		}
	}
	for i := range keys {
		if k := &keys[i]; k.kind == mkJoin {
			k.settle(e.awaitJoined(ctx, k.sh, ids[i], k.f))
		}
	}
}

// fetchBatch fetches backend b's share of the session's owned misses as
// one coalesced demand batch when it holds two or more keys; a lone
// key is left to fetchMisses' one-key demand fetch.
//
//prefetch:hotpath
func (e *Engine) fetchBatch(ctx context.Context, b int, ids []ID, sc *reqScratch) {
	keys := sc.keys
	gids := sc.gids[:0]
	gidx := sc.gidx[:0]
	for i := range keys {
		if keys[i].kind == mkOwner && int(keys[i].backend) == b {
			gids = append(gids, ids[i])
			gidx = append(gidx, i)
		}
	}
	sc.gids, sc.gidx = gids, gidx
	if len(gids) < 2 {
		return
	}
	out := sc.bout[:0]
	errs := sc.berrs[:0]
	for range gids {
		out = append(out, Item{})
		errs = append(errs, nil)
	}
	sc.bout, sc.berrs = out, errs
	if e.batchCapable(b) {
		e.batchedKeys.Add(int64(len(gids)))
	}
	e.demandBatch(ctx, b, gids, out, errs, sc)
	for i, id := range gids {
		keys[gidx[i]].settle(e.complete(id, keys[gidx[i]].f, out[i], errs[i], false))
	}
	clear(out)
	clear(errs)
}

// batchCapable reports whether backend b can coalesce a demand batch.
//
//prefetch:hotpath
func (e *Engine) batchCapable(b int) bool {
	if e.fabric != nil {
		return e.fabric.BatchCapable(b)
	}
	return e.batchFetcher != nil
}

// demandBatch fetches one backend's share of a session's misses (two
// or more keys) as a single demand batch, filling out/errs (len(gids),
// index-aligned). On the fabric path FetchDemandBatch owns the contract
// checks and the per-key fallback; on the plain path they are applied
// here — a batch error, a short reply or a misordered reply degrades to
// per-key fallback fetches, so one bad reply never fails the session.
//
//prefetch:hotpath
func (e *Engine) demandBatch(ctx context.Context, b int, gids []ID, out []Item, errs []error, sc *reqScratch) {
	if e.fabric != nil {
		fids := sc.fids[:0]
		fitems := sc.fitems[:0]
		ferrs := sc.ferrs[:0]
		for _, id := range gids {
			fids = append(fids, fetch.ID(id))
			fitems = append(fitems, fetch.Item{})
			ferrs = append(ferrs, nil)
		}
		sc.fids, sc.fitems, sc.ferrs = fids, fitems, ferrs
		e.fabric.FetchDemandBatch(ctx, b, fids, fitems, ferrs)
		for i := range gids {
			out[i], errs[i] = itemOf(fitems[i]), ferrs[i]
		}
		clear(fitems)
		clear(ferrs)
		return
	}
	if e.batchFetcher != nil {
		items, err := e.batchFetcher.FetchBatch(ctx, gids)
		if err == nil {
			ok := len(items) == len(gids)
			if ok {
				for i, it := range items {
					if it.ID != gids[i] {
						ok = false
						break
					}
				}
			}
			if ok {
				copy(out, items)
				for i := range gids {
					errs[i] = nil
				}
				return
			}
			// Short or misordered reply: contract violation — fall
			// through to the per-key fallback rather than failing keys
			// that individual fetches can still serve.
		}
	}
	for i, id := range gids {
		if err := ctx.Err(); err != nil {
			for j := i; j < len(gids); j++ {
				out[j], errs[j] = Item{}, err
			}
			return
		}
		out[i], errs[i] = e.fetcher.Fetch(ctx, id)
	}
}
