package prefetcher

import (
	"context"
	"errors"
)

// This file is the zero-copy byte payload path: GetBytes, GetBytesLen
// and GetMultiBytes serve []byte payloads by appending into
// caller-owned buffers instead of boxing them through Item.Data. On a
// cache backed by a ByteCache (prefetcher/bytestore's slab store) a
// hit copies straight from the pointer-free arena into the caller's
// buffer while the shard lock protects the slab view — no interface
// boxing, no per-hit allocation once the buffer has grown to working
// size (gated by TestGetBytesAllocFree/TestGetMultiBytesAllocFree).
// Boxed caches work too: a resident []byte is appended under the same
// lock, so benchmarks compare boxed vs slab storage on one API.
//
// Ownership contract: the engine never retains the caller's buffer,
// and the caller gets back an extension of exactly the buffer it
// passed — pooling it is safe. The payload is always a copy; no result
// aliases cache or slab memory.

// ErrNotBytes reports that a requested item is (or was fetched as) a
// non-[]byte payload, which the byte path cannot serve. The item
// itself is cached normally — Get/GetMulti will serve it.
var ErrNotBytes = errors.New("prefetcher: payload is not []byte")

// ByteRange locates one session key's payload inside the buffer
// GetMultiBytes returns: buf[Off : Off+Len]. A failed key carries
// {-1, -1} and its error in the session's *MultiError.
type ByteRange struct {
	Off, Len int
}

// GetBytes is Get for byte payloads: it serves id by appending the
// payload to dst and returning the extended slice. The demand-path
// semantics are exactly Get's — same predictor observation, estimator
// folds, hit/miss/join accounting and speculative planning; misses go
// through the same dedup'd fetch machinery. On error (including
// ErrNotBytes for a non-[]byte payload, which stays cached and
// Get-servable) dst is returned unchanged.
//
//prefetch:hotpath
func (e *Engine) GetBytes(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	s := sink{mode: sinkBytes, buf: dst}
	if _, err := e.getOne(ctx, id, &s); err != nil {
		return dst, err
	}
	return s.buf, nil
}

// GetBytesLen reports id's payload length without copying the payload
// — the Content-Length probe behind HEAD handlers. Residency, recency,
// accounting and speculative planning behave exactly as a Get hit; a
// miss demand-fetches (the payload has to exist to have a length) and
// reports the fetched length.
//
//prefetch:hotpath
func (e *Engine) GetBytesLen(ctx context.Context, id ID) (int, error) {
	s := sink{mode: sinkLen}
	if _, err := e.getOne(ctx, id, &s); err != nil {
		return 0, err
	}
	return s.n, nil
}

// sinkMode selects where a served payload lands.
type sinkMode uint8

const (
	sinkItem  sinkMode = iota // boxed, in the returned Item (Get, GetMulti)
	sinkBytes                 // appended to buf (GetBytes, GetMultiBytes)
	sinkLen                   // length only (GetBytesLen)
)

// sink is the value-typed destination a request's payload lands in —
// a plain struct rather than an interface, so the hit path stays
// allocation-free. n is the length of the payload last landed in a
// byte mode.
type sink struct {
	mode sinkMode
	buf  []byte
	n    int
}

// land unboxes a payload into a byte-mode sink; the item mode keeps it
// boxed. A non-[]byte payload leaves the sink untouched and reports
// ErrNotBytes.
//
//prefetch:hotpath
func (s *sink) land(v any) error {
	if s.mode == sinkItem {
		return nil
	}
	b, ok := v.([]byte)
	if !ok {
		return ErrNotBytes
	}
	s.n = len(b)
	if s.mode == sinkBytes {
		s.buf = append(s.buf, b...)
	}
	return nil
}

// GetMultiBytes is GetMulti for byte payloads: the whole session's
// payloads are packed back to back into buf (truncated, appended,
// returned extended — same contract as GetBytes' dst) and located by
// one ByteRange per id, index-aligned and appended to ranges. Hits are
// copied into buf inside the gather's per-shard critical sections;
// misses run the ordinary coalesced batch path and their items are
// unboxed into buf afterwards. Failures are per key: a failed id gets
// ByteRange{-1, -1} and a KeyError (ErrNotBytes for non-[]byte
// payloads) in the returned *MultiError, while the rest of the session
// is served — exactly GetMulti's semantics. Steady-state callers
// reusing buf and ranges keep the all-hit session allocation-free.
//
//prefetch:hotpath
func (e *Engine) GetMultiBytes(ctx context.Context, ids []ID, buf []byte, ranges []ByteRange) ([]byte, []ByteRange, error) {
	ranges = ranges[:0]
	s := sink{mode: sinkBytes, buf: buf[:0]}
	sc := e.getScratch()
	err := e.session(ctx, ids, sc, &s)
	if err == nil {
		for i := range sc.keys {
			k := &sc.keys[i]
			r := ByteRange{Off: -1, Len: -1}
			if k.err == nil {
				r = ByteRange{Off: k.off, Len: k.blen}
			}
			ranges = append(ranges, r)
		}
		err = e.finishSession(ids, sc.keys)
	}
	e.putScratch(sc)
	return s.buf, ranges, err
}
