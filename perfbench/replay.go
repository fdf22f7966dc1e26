package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/predict"
	"repro/prefetcher"
	"repro/prefetcher/bytestore"
)

// The predictor and the cache are measured by standalone replays of
// the workload's key stream, not by wrapping them in the engine: a
// wrapped predictor or cache would push the engine off its internal
// fast paths, and the trace would time a different program.

// replayKeys flattens a workload's key stream for the replays.
func replayKeys(spec workloadSpec, seed uint64, n int) []int64 {
	if !spec.batch {
		return markovStream(seed, spec.objects, n)
	}
	var keys []int64
	for _, s := range sessionStream(seed, spec.objects, spec.fanout, n/spec.fanout+1) {
		keys = append(keys, s...)
	}
	return keys[:n]
}

// predictNsPerOp replays keys through the built-in Markov model's
// observe-and-predict-top call, asking for as many candidates as the
// engine's default prefetch cap.
func predictNsPerOp(keys []int64) float64 {
	m := predict.NewConcurrentMarkov1()
	dst := make([]predict.Prediction, 0, 4)
	t0 := time.Now()
	for _, k := range keys {
		dst = m.ObserveAndPredictTopInto(cache.ID(k), 4, dst[:0])
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(keys))
}

// storeNs replays keys through one instance of the workload's store:
// every key Put in order (evicting as capacity demands), then every key
// looked up in order against what remains.
func storeNs(spec workloadSpec, payloads [][]byte, keys []int64) (getNs, putNs float64, err error) {
	var c prefetcher.Cache
	var bc prefetcher.ByteCache
	if spec.daemon {
		s, err := bytestore.New(bytestore.Config{
			CapacityBytes: spec.slab, MaxEntries: spec.cache, SegmentBytes: segmentBytes, Policy: "lru",
		})
		if err != nil {
			return 0, 0, err
		}
		c, bc = s, s
	} else {
		c = prefetcher.NewLRUCache(spec.cache)
	}
	c.OnEvict(func(prefetcher.ID) {})
	t0 := time.Now()
	for _, k := range keys {
		c.Put(prefetcher.ID(k), payloads[k])
	}
	putNs = float64(time.Since(t0).Nanoseconds()) / float64(len(keys))
	buf := make([]byte, 0, spec.size)
	t0 = time.Now()
	if bc != nil {
		for _, k := range keys {
			buf, _ = bc.GetBytes(prefetcher.ID(k), buf[:0])
		}
	} else {
		for _, k := range keys {
			c.Get(prefetcher.ID(k))
		}
	}
	getNs = float64(time.Since(t0).Nanoseconds()) / float64(len(keys))
	return getNs, putNs, nil
}

// noPrefetchHitRatio is h′ measured offline: the hit ratio keys get
// from an LRU cache of the workload's capacity with nothing prefetched.
func noPrefetchHitRatio(capacity int, keys []int64) float64 {
	s := cache.NewStore(capacity, cache.NewLRU())
	hits := 0
	for _, k := range keys {
		if s.Access(cache.ID(k)) {
			hits++
		} else {
			s.Admit(cache.ID(k))
		}
	}
	return float64(hits) / float64(len(keys))
}
