package prefetcher

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/predict"
)

// --- The engine's predictor seam ----------------------------------------

// predictSeam is the engine's one view of its access model, chosen once
// at New. observeSession feeds a request's ids as one linearised
// sequence — the stream N singleton Gets would produce; a singleton is
// the one-id case. It returns up to k candidates conditioned on the
// last id, staged in the request's pooled buffers (k == 0 observes
// only).
type predictSeam interface {
	observeSession(ids []ID, k int, bufs *candBufs) []predict.Prediction
	// lockFree reports whether calls bypass the compatibility mutex
	// (Stats.PredictorLockFree).
	lockFree() bool
}

// newPredictSeam normalises the configured predictor: built-ins drive
// their coupled observe-and-predict call directly, every other
// predictor goes through pluginSeam.
func newPredictSeam(p Predictor) predictSeam {
	if ip, ok := p.(internalPredictor); ok {
		if cp, ok := ip.internal().(predict.CoupledPredictor); ok {
			return coupledSeam{cp}
		}
	}
	return newPluginSeam(p)
}

// coupledSeam runs a built-in concurrent model lock-free. Each call
// observes and predicts in one step, conditioned on the observed id
// itself, so a racing Get that moves the shared stream context between
// an observation and a prediction cannot hand this request another
// request's candidates. A session's intermediate ids observe with
// k = 0, which keeps each observation atomic with respect to racing
// Gets exactly as for singleton requests.
type coupledSeam struct{ p predict.CoupledPredictor }

func (s coupledSeam) observeSession(ids []ID, k int, bufs *candBufs) []predict.Prediction {
	last := len(ids) - 1
	for _, id := range ids[:last] {
		s.p.ObserveAndPredictTopInto(cache.ID(id), 0, bufs.cands[:0])
	}
	return s.p.ObserveAndPredictTopInto(cache.ID(ids[last]), k, bufs.cands[:0])
}

func (coupledSeam) lockFree() bool { return true }

// pluginSeam adapts an external Predictor. Its TopInto/Top/Predict
// choice is made once, at construction: the engine never dispatches
// more than k candidates, so a predictor that can produce just its top
// k skips sorting its whole distribution. A ConcurrentPredictor is
// called directly; any other plugin runs under mu, the compatibility
// mutex — a request's Observe and the prediction that plans it in one
// critical section, a whole GetMulti session's observations in one —
// so it sees one globally interleaved request stream.
type pluginSeam struct {
	p          Predictor
	top        func(dst []Prediction, k int) []Prediction
	concurrent bool
	mu         sync.Mutex
}

func newPluginSeam(p Predictor) *pluginSeam {
	s := &pluginSeam{p: p}
	_, s.concurrent = p.(ConcurrentPredictor)
	switch tp := p.(type) {
	case TopIntoPredictor:
		s.top = tp.PredictTopInto
	case TopPredictor:
		s.top = func(_ []Prediction, k int) []Prediction { return tp.PredictTop(k) }
	default:
		s.top = func([]Prediction, int) []Prediction { return p.Predict() }
	}
	return s
}

func (s *pluginSeam) observeSession(ids []ID, k int, bufs *candBufs) []predict.Prediction {
	if s.concurrent {
		return s.observeLocked(ids, k, bufs)
	}
	s.mu.Lock()
	cands := s.observeLocked(ids, k, bufs)
	s.mu.Unlock()
	return cands
}

func (s *pluginSeam) lockFree() bool { return s.concurrent }

// observeLocked observes ids in order and converts the top k
// predictions after the last one into the engine's candidate buffer.
// Called with mu held for plain plugins.
func (s *pluginSeam) observeLocked(ids []ID, k int, bufs *candBufs) []predict.Prediction {
	for _, id := range ids {
		s.p.Observe(id)
	}
	if k == 0 {
		return nil
	}
	preds := s.top(bufs.pub[:0], k)
	if len(preds) > k {
		// Both the policies and the engine's cap only ever admit a
		// prefix of the sorted candidates, so the tail can never be
		// dispatched; dropping it here keeps the conversion inside the
		// pooled buffer's capacity.
		preds = preds[:k]
	}
	cands := bufs.cands[:0]
	for _, p := range preds {
		cands = append(cands, predict.Prediction{Item: cache.ID(p.ID), Prob: p.Prob})
	}
	return cands
}

// --- Predictor adapters over internal/predict ---------------------------

// internalPredictor is how the engine unwraps built-in predictors at
// construction (newPredictSeam): it talks to the internal model
// directly, with no per-call conversion through the public types.
type internalPredictor interface {
	internal() predict.Predictor
}

// predictorAdapter lifts an internal predictor to the public interface.
// The public methods exist for callers that use a built-in predictor
// outside an Engine; the engine itself goes through internal().
// staging pools the internal-type buffer PredictTopInto converts out
// of, so the public Into path honours its zero-allocation contract.
type predictorAdapter struct {
	p       predict.Predictor
	staging *sync.Pool // *[]predict.Prediction
}

func (a predictorAdapter) internal() predict.Predictor { return a.p }

func (a predictorAdapter) Observe(id ID) { a.p.Observe(cache.ID(id)) }

func (a predictorAdapter) Name() string { return a.p.Name() }

func (a predictorAdapter) Predict() []Prediction {
	return publicPredictions(a.p.Predict())
}

// PredictTop implements the public TopPredictor when the wrapped model
// supports bounded top-k prediction, falling back to the Predict
// prefix otherwise.
func (a predictorAdapter) PredictTop(k int) []Prediction {
	if k <= 0 {
		return nil
	}
	if tp, ok := a.p.(predict.TopPredictor); ok {
		return publicPredictions(tp.PredictTop(k))
	}
	ps := a.Predict()
	if k < len(ps) {
		ps = ps[:k]
	}
	if len(ps) == 0 {
		return nil
	}
	return ps
}

// PredictTopInto implements the public TopIntoPredictor: the top-k
// candidates are appended to dst. When the wrapped model supports the
// internal Into form the conversion stages through a pooled buffer, so
// the call is allocation-free in steady state; the engine itself never
// takes this route for built-ins (it unwraps to the internal model),
// so this exists for callers using a built-in predictor outside an
// Engine.
//
//prefetch:hotpath
func (a predictorAdapter) PredictTopInto(dst []Prediction, k int) []Prediction {
	if k <= 0 {
		return nil
	}
	var ps []predict.Prediction
	var buf *[]predict.Prediction
	if tp, ok := a.p.(predict.TopIntoPredictor); ok {
		buf = a.staging.Get().(*[]predict.Prediction)
		ps = tp.PredictTopInto((*buf)[:0], k)
	} else if tp, ok := a.p.(predict.TopPredictor); ok {
		ps = tp.PredictTop(k)
	} else {
		ps = a.p.Predict()
		if k < len(ps) {
			ps = ps[:k]
		}
	}
	out := dst[:0]
	for _, p := range ps {
		out = append(out, Prediction{ID: ID(p.Item), Prob: p.Prob})
	}
	if buf != nil {
		a.staging.Put(buf)
	}
	return out
}

// concurrentAdapter is the adapter for internally concurrent models: it
// additionally carries the public ConcurrentPredictor marker, so a
// built-in concurrent predictor type-asserts correctly outside an
// Engine too.
type concurrentAdapter struct {
	predictorAdapter
}

// ConcurrentSafe implements ConcurrentPredictor.
func (concurrentAdapter) ConcurrentSafe() {}

// adaptPredictor wraps an internal predictor in the adapter matching
// its concurrency contract.
func adaptPredictor(p predict.Predictor) Predictor {
	staging := &sync.Pool{New: func() any {
		s := make([]predict.Prediction, 0, 16)
		return &s
	}}
	if _, ok := p.(predict.ConcurrentPredictor); ok {
		return concurrentAdapter{predictorAdapter{p, staging}}
	}
	return predictorAdapter{p, staging}
}

// publicPredictions converts internal predictions to the public type.
func publicPredictions(ps []predict.Prediction) []Prediction {
	if len(ps) == 0 {
		return nil
	}
	out := make([]Prediction, len(ps))
	for i, p := range ps {
		out[i] = Prediction{ID: ID(p.Item), Prob: p.Prob}
	}
	return out
}

// NewMarkovPredictor returns a first-order Markov access model (counts
// of prev→next transitions) — the default predictor. It satisfies the
// ConcurrentPredictor contract: transition rows are striped with atomic
// counts and the current state is an atomic swap chain, so the engine
// runs it lock-free.
func NewMarkovPredictor() Predictor { return adaptPredictor(predict.NewConcurrentMarkov1()) }

// NewLZPredictor returns the Vitter–Krishnan LZ78 predictor: the
// request stream is parsed into a phrase trie whose current node
// conditions the next-access distribution. Concurrent: the parse
// position is an atomic swap chain (so every observation extends one
// global parse) and the trie grows by CAS child insertion, so the
// engine runs it lock-free like the other built-ins.
func NewLZPredictor() Predictor { return adaptPredictor(predict.NewConcurrentLZ78()) }

// NewPPMPredictor returns an order-k prediction-by-partial-matching
// model (k >= 1) with escape to shorter contexts. Concurrent: context
// tables are striped, the bounded history sits behind a short mutex.
func NewPPMPredictor(k int) Predictor { return adaptPredictor(predict.NewConcurrentPPM(k)) }

// NewDependencyGraphPredictor returns the Padmanabhan–Mogul dependency
// graph with lookahead window w (w >= 1). Concurrent: the edge table is
// striped with atomic counts, the lookahead window sits behind a short
// mutex.
func NewDependencyGraphPredictor(w int) Predictor {
	return adaptPredictor(predict.NewConcurrentDependencyGraph(w))
}

// NewPopularityPredictor returns a global-frequency predictor reporting
// the topK most popular items (topK <= 0 means all). Concurrent: counts
// live in a lock-free map of atomic counters.
func NewPopularityPredictor(topK int) Predictor {
	return adaptPredictor(predict.NewConcurrentPopularity(topK))
}

// --- Cache adapters over internal/cache ---------------------------------

// storeCache pairs the internal residency store (capacity + replacement
// policy + hit accounting) with a payload map.
type storeCache struct {
	store   *cache.Store
	values  map[ID]any
	onEvict func(ID)
}

func newStoreCache(capacity int, policy cache.Policy) *storeCache {
	c := &storeCache{
		store:  cache.NewStore(capacity, policy),
		values: make(map[ID]any, capacity),
	}
	c.store.OnEvict(func(id cache.ID) {
		delete(c.values, ID(id))
		if c.onEvict != nil {
			c.onEvict(ID(id))
		}
	})
	return c
}

func (c *storeCache) Get(id ID) (any, bool) {
	if !c.store.Access(cache.ID(id)) {
		return nil, false
	}
	return c.values[id], true
}

func (c *storeCache) Put(id ID, value any) {
	c.values[id] = value
	c.store.Admit(cache.ID(id))
}

func (c *storeCache) Contains(id ID) bool { return c.store.Contains(cache.ID(id)) }

func (c *storeCache) Len() int { return c.store.Len() }

func (c *storeCache) OnEvict(fn func(ID)) { c.onEvict = fn }

// NewLRUCache returns a least-recently-used cache holding at most
// capacity items. It panics if capacity < 1.
func NewLRUCache(capacity int) Cache { return newStoreCache(capacity, cache.NewLRU()) }

// NewSLRUCache returns a segmented-LRU cache: new entries start on
// probation and are promoted on re-reference, so speculative prefetches
// that never get used churn through probation without displacing the
// protected working set. protectedCap bounds the protected segment
// (capacity/2 is a reasonable default). It panics if capacity < 1 or
// protectedCap < 1.
func NewSLRUCache(capacity, protectedCap int) Cache {
	return newStoreCache(capacity, cache.NewSLRU(protectedCap))
}

// NewFIFOCache returns a first-in-first-out cache of the given capacity.
func NewFIFOCache(capacity int) Cache { return newStoreCache(capacity, cache.NewFIFO()) }

// NewCacheWithPolicy returns a cache of the given capacity using a
// replacement policy selected by name: "lru", "lfu", "fifo" or "clock".
func NewCacheWithPolicy(capacity int, policy string) (Cache, error) {
	p, err := cache.NewPolicy(policy)
	if err != nil {
		return nil, fmt.Errorf("prefetcher: %w", err)
	}
	return newStoreCache(capacity, p), nil
}

// --- Clocks -------------------------------------------------------------

// systemClock is the default wall-clock time source.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// ManualClock is a Clock whose time only moves when told to — for
// deterministic tests and trace replay. It is safe for concurrent use.
type ManualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewManualClock returns a manual clock starting at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// AdvanceSeconds moves the clock forward by s seconds (a convenience
// for simulations whose inter-arrival times are float64 seconds).
func (c *ManualClock) AdvanceSeconds(s float64) {
	c.Advance(time.Duration(s * float64(time.Second)))
}
