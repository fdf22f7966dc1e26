package prefetcher

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/prefetcher/fetch"
)

// This file is the batched demand path: GetMulti serves a correlated
// multi-key "session" (a page load fanning out to N keys) in one pass
// instead of N independent Gets. The work splits into four layers —
// a shard gather that classifies every key hit/join/miss taking each
// shard lock once, miss coalescing that hands each backend's share of
// the misses to FetchBatch as a single demand batch, an optional
// demand-dedup merge window that folds overlapping concurrent sessions
// into one backend batch (WithDemandCoalescing), and accounting that
// feeds the predictor one linearised observation sequence per session
// so the Markov chain sees the same stream N singleton Gets would have
// produced. All per-session scratch is pooled; the all-hit path
// allocates nothing in steady state (gated by TestGetMultiAllocFree).

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
// hit/join/owner/merged in the gather, then → mkDone once its item or
// error is final.
const (
	mkPending uint8 = iota
	mkHit           // served from cache inside the gather's critical section
	mkJoin          // attached to a flight another request owns
	mkOwner         // this session owns the flight; fetched on the batch path
	mkMerged        // owner handed to the merge window; awaited like a join
	mkDone          // item/err final
)

// multiKey is one session key's classification and outcome.
type multiKey struct {
	sh      *shard
	f       *flight
	item    Item
	err     error
	backend int
	kind    uint8
	used    bool // hit consumed a prefetched-unused entry
	// Byte-mode (GetMultiBytes) outcome: inBuf marks a payload already
	// appended to the session buffer at [off, off+blen).
	off, blen int
	inBuf     bool
}

// multiScratch is the pooled per-session state: the per-key
// classification table and the staging buffers for batch dispatch and
// the fabric's type conversion. Pooling it is what keeps GetMulti's
// all-hit path allocation-free.
type multiScratch struct {
	states []multiKey
	gids   []ID  // one backend's share of the misses
	gidx   []int // indices into states, aligned with gids
	bout   []Item
	berrs  []error
	fids   []fetch.ID
	fitems []fetch.Item
	ferrs  []error
	mids   []ID // a merge leader's taken batch
	mfs    []*flight
}

//prefetch:hotpath
func (e *Engine) getMulti() *multiScratch { return e.multiPool.Get().(*multiScratch) }

// putMulti clears the payload, flight and error references a session
// staged (pooled scratch must not pin cached data or resolved flights)
// and returns the scratch to the pool.
//
//prefetch:hotpath
func (e *Engine) putMulti(sc *multiScratch) {
	clear(sc.states)
	sc.states = sc.states[:0]
	sc.gids, sc.gidx = sc.gids[:0], sc.gidx[:0]
	clear(sc.bout)
	sc.bout = sc.bout[:0]
	clear(sc.berrs)
	sc.berrs = sc.berrs[:0]
	sc.fids = sc.fids[:0]
	clear(sc.fitems)
	sc.fitems = sc.fitems[:0]
	clear(sc.ferrs)
	sc.ferrs = sc.ferrs[:0]
	sc.mids = sc.mids[:0]
	clear(sc.mfs)
	sc.mfs = sc.mfs[:0]
	e.multiPool.Put(sc)
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
// session's last id.
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
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if e.closed.Load() {
		return dst, ErrClosed
	}
	if len(ids) == 0 {
		return dst, nil
	}
	e.multiGets.Add(1)
	now := e.now()
	bufs := e.getBufs()
	cands := e.pred.observeSession(ids, e.maxPrefetch, bufs)
	sc := e.getMulti()
	var s sink
	if misses := e.gatherMulti(ids, now, sc, &s); misses > 0 {
		e.fetchMultiMisses(ctx, ids, sc)
	}
	nerr := 0
	states := sc.states
	for i := range ids {
		dst = append(dst, states[i].item)
		if states[i].err != nil {
			nerr++
		}
	}
	var err error
	if nerr > 0 {
		err = buildMultiError(ids, states, nerr)
	}
	e.schedule(cands)
	e.putMulti(sc)
	e.putBufs(bufs)
	return dst, err
}

// buildMultiError assembles the session's per-key error report. Only
// reached when at least one key failed, so its allocations never touch
// the all-hit path.
func buildMultiError(ids []ID, states []multiKey, nerr int) error {
	//lint:allow hotpathalloc error construction on the per-key failure path only
	errs := make([]KeyError, 0, nerr)
	for i := range ids {
		if states[i].err != nil {
			//lint:allow hotpathalloc error construction on the per-key failure path only
			errs = append(errs, KeyError{Index: i, ID: ids[i], Err: states[i].err})
		}
	}
	//lint:allow hotpathalloc error construction on the per-key failure path only
	return &MultiError{Errors: errs}
}

// gatherMulti classifies the session's keys shard by shard: each pass
// takes one shard's lock once and classifies every still-pending
// session key living there — hits land in s through the same lookup a
// singleton request uses, inside that single critical section; misses
// either join the in-flight fetch for their key or register this
// session's own flight (handed to the merge window when one is
// configured). Counter bumps and estimator folds happen after the
// locks drop, on atomics, each key bumping requests before its outcome
// counter exactly like the singleton paths. A byte-mode hit is located
// in s.buf by off/blen. Returns how many keys still need the miss path.
//
//prefetch:hotpath
func (e *Engine) gatherMulti(ids []ID, now float64, sc *multiScratch, s *sink) int {
	states := sc.states[:0]
	for _, id := range ids {
		states = append(states, multiKey{sh: e.shardFor(id)})
	}
	sc.states = states
	merge := e.mergers != nil
	for i := range states {
		if states[i].kind != mkPending {
			continue
		}
		sh := states[i].sh
		sh.mu.Lock()
		for j := i; j < len(states); j++ {
			st := &states[j]
			if st.kind != mkPending || st.sh != sh {
				continue
			}
			id := ids[j]
			off := len(s.buf)
			if r, ok := sh.lookupLocked(id, s); ok {
				st.kind, st.used, st.err = mkHit, r.used, r.err
				st.item = Item{ID: id, Size: r.size, Data: r.data}
				st.off, st.blen = off, s.n
				st.inBuf = s.mode == sinkBytes && r.err == nil
				continue
			}
			f, owner := sh.joinOrRegister(e, id)
			k := mkJoin
			if owner {
				k = mkOwner
				if merge {
					// The merge window hands the fetch to whichever
					// session leads the window, so this session awaits
					// its own key like a joiner: it takes a joiner
					// reference alongside the owner reference it just
					// registered. (A duplicate id later in the session
					// joins this same flight — intra-session dedup
					// falls out of the single-flight table.)
					f.waiters++
					f.refs.Add(1)
					k = mkMerged
				}
			}
			st.kind, st.f = k, f
		}
		sh.mu.Unlock()
	}
	misses := 0
	for i := range states {
		st := &states[i]
		sh := st.sh
		if st.kind == mkHit {
			e.landHit(sh, ids[i], now, hit{size: st.item.Size, used: st.used}, true)
			st.kind = mkDone
			continue
		}
		sh.requests.Add(1)
		sh.misses.Add(1)
		if st.kind == mkJoin {
			sh.joins.Add(1)
		}
		e.ctrl.RecordRequest(now, 0)
		misses++
	}
	return misses
}

// fetchMultiMisses serves the keys the gather could not: owned misses
// travel to their routed backends as coalesced demand batches (through
// the merge window when one is configured), then every joined and
// merged key awaits the flight it attached to.
//
//prefetch:hotpath
func (e *Engine) fetchMultiMisses(ctx context.Context, ids []ID, sc *multiScratch) {
	states := sc.states
	nb := 1
	if e.fabric != nil {
		nb = e.fabric.NumBackends()
		if nb > 1 {
			for i := range states {
				if k := states[i].kind; k == mkOwner || k == mkMerged {
					states[i].backend = e.fabric.Route(fetch.ID(ids[i]))
				}
			}
		}
	}
	for b := 0; b < nb; b++ {
		e.dispatchMultiBackend(ctx, b, ids, sc)
	}
	for i := range states {
		st := &states[i]
		if st.kind == mkJoin || st.kind == mkMerged {
			st.item, st.err = e.awaitJoined(ctx, st.sh, ids[i], st.f, st.kind == mkJoin)
			st.kind = mkDone
		}
	}
}

// dispatchMultiBackend collects one backend's share of the session's
// owned misses and either executes it as a demand batch or contributes
// it to the backend's merge window.
//
//prefetch:hotpath
func (e *Engine) dispatchMultiBackend(ctx context.Context, b int, ids []ID, sc *multiScratch) {
	states := sc.states
	gids := sc.gids[:0]
	gidx := sc.gidx[:0]
	merged := false
	for i := range states {
		k := states[i].kind
		if (k != mkOwner && k != mkMerged) || states[i].backend != b {
			continue
		}
		merged = k == mkMerged
		gids = append(gids, ids[i])
		gidx = append(gidx, i)
	}
	sc.gids, sc.gidx = gids, gidx
	if len(gids) == 0 {
		return
	}
	if merged {
		e.contributeMerge(ctx, b, gids, sc)
		return
	}
	e.runDemandBatch(ctx, b, gids, gidx, sc)
}

// runDemandBatch executes one backend's share of the session's misses
// as a single coalesced demand batch and lands each key exactly as a
// singleton demand fetch would (complete: cache fill, size and
// estimator folds, flight resolution, per-key error).
//
//prefetch:hotpath
func (e *Engine) runDemandBatch(ctx context.Context, b int, gids []ID, gidx []int, sc *multiScratch) {
	out := sc.bout[:0]
	errs := sc.berrs[:0]
	for range gids {
		out = append(out, Item{})
		errs = append(errs, nil)
	}
	sc.bout, sc.berrs = out, errs
	if len(gids) > 1 && e.batchCapable(b) {
		e.batchedKeys.Add(int64(len(gids)))
	}
	e.demandBatch(ctx, b, gids, out, errs, sc)
	states := sc.states
	for i, id := range gids {
		st := &states[gidx[i]]
		st.item, st.err = e.complete(id, st.f, out[i], errs[i], false)
		st.kind = mkDone
	}
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

// demandBatch fetches one backend's share of a session's misses as a
// single demand batch, filling out/errs (len(gids), index-aligned).
// On the fabric path FetchDemandBatch owns the contract checks and the
// per-key fallback; on the plain path they are applied here — a batch
// error, a short reply or a misordered reply degrades to per-key
// fallback fetches, so one bad reply never fails the session.
//
//prefetch:hotpath
func (e *Engine) demandBatch(ctx context.Context, b int, gids []ID, out []Item, errs []error, sc *multiScratch) {
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
		return
	}
	if e.batchFetcher != nil && len(gids) > 1 {
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

// demandMerger is one backend's demand-dedup merge window
// (WithDemandCoalescing): sessions contribute their misses under mu
// and the first contributor leads the open window on its own goroutine
// — there is no background merger goroutine, so there is nothing to
// leak at Close. mu is a leaf in the engine's lock order: nothing
// acquires any other lock while holding it, and it is never taken
// under a shard mutex.
type demandMerger struct {
	mu      sync.Mutex
	ids     []ID
	fs      []*flight // index-aligned with ids
	leading bool
	// full wakes the leader early when the accumulated batch reaches
	// maxBatch (buffered: contributors never block on it). A stale
	// token — a follower signalling just as the window expires — can
	// cut the next window short by one signal; that is harmless, the
	// leader just dispatches what has accumulated so far.
	full chan struct{}
}

// contributeMerge adds one backend's share of the session's misses to
// that backend's merge window. The first contributor becomes the
// leader: it waits out the window (cut short by the maxBatch
// high-water mark, engine close, or its own context), then drains
// everything accumulated and executes it as coalesced demand batches,
// completing every flight — its own keys included, which the caller
// then awaits through fetchMultiMisses exactly like a follower's.
// Every entry is drained by whichever session led when it was added,
// so no flight is ever orphaned in the window.
//
//prefetch:hotpath
func (e *Engine) contributeMerge(ctx context.Context, b int, gids []ID, sc *multiScratch) {
	m := e.mergers[b]
	m.mu.Lock()
	m.ids = append(m.ids, gids...)
	for _, i := range sc.gidx {
		m.fs = append(m.fs, sc.states[i].f)
	}
	lead := !m.leading
	if lead {
		m.leading = true
	}
	n := len(m.ids)
	m.mu.Unlock()
	if !lead {
		e.mergedSessions.Add(1)
		if n >= e.mergeMax {
			select {
			case m.full <- struct{}{}:
			default:
			}
		}
		return
	}
	if n < e.mergeMax {
		timer := time.NewTimer(e.mergeWindow)
		select {
		case <-timer.C:
		case <-m.full:
			timer.Stop()
		case <-e.baseCtx.Done():
			timer.Stop()
		case <-ctx.Done():
			timer.Stop()
		}
	}
	m.mu.Lock()
	mids := append(sc.mids[:0], m.ids...)
	mfs := append(sc.mfs[:0], m.fs...)
	sc.mids, sc.mfs = mids, mfs
	m.ids = m.ids[:0]
	clear(m.fs) // drop the flight references before pooling-style reuse
	m.fs = m.fs[:0]
	m.leading = false
	select {
	case <-m.full: // absorb a high-water signal for entries just taken
	default:
	}
	m.mu.Unlock()
	e.executeMergedBatch(ctx, b, mids, mfs, sc)
}

// executeMergedBatch completes every flight of a drained merge window
// in demand batches of at most mergeMax keys. Per-key failures (the
// leader's context dying included) fail only the affected flights;
// their sessions retry those keys individually under their own
// contexts via the awaitJoined loop.
//
//prefetch:hotpath
func (e *Engine) executeMergedBatch(ctx context.Context, b int, mids []ID, mfs []*flight, sc *multiScratch) {
	for start := 0; start < len(mids); start += e.mergeMax {
		end := start + e.mergeMax
		if end > len(mids) {
			end = len(mids)
		}
		chunk := mids[start:end]
		out := sc.bout[:0]
		errs := sc.berrs[:0]
		for range chunk {
			out = append(out, Item{})
			errs = append(errs, nil)
		}
		sc.bout, sc.berrs = out, errs
		if len(chunk) > 1 && e.batchCapable(b) {
			e.batchedKeys.Add(int64(len(chunk)))
		}
		e.demandBatch(ctx, b, chunk, out, errs, sc)
		for i, id := range chunk {
			e.complete(id, mfs[start+i], out[i], errs[i], false)
		}
	}
}
