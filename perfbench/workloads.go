package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/workload"
)

// workloadSpec is one traffic mix. Sizes and rates are fixed here, not
// by flags: a workload is only comparable across commits if its inputs
// are.
type workloadSpec struct {
	name    string
	daemon  bool          // served by a prefetchd subprocess
	objects int           // catalog size
	size    int           // payload bytes per object
	cache   int           // cache capacity in entries
	slab    int           // slab byte budget (daemon workloads)
	bps     float64       // link capacity, bytes/s (0: unlimited)
	prop    time.Duration // link propagation delay
	rate    float64       // open-loop arrivals/s (0: closed loop)
	batch   bool          // page loads through GET /batch
	fanout  int           // keys per page load
	warm    time.Duration // warm-up before the measured window
	// bandwidth is the engine's -b: the capacity ρ̂′ normalises against.
	bandwidth float64
}

// The simulated link of the daemon-link workload; daemon-batch runs the
// same link model at four times the capacity.
const (
	linkBps  = 1.2e6
	linkProp = 500 * time.Microsecond
)

var workloads = []workloadSpec{
	{
		// The library's default composition in process: the only
		// workload where the engine's microseconds per operation are not
		// hidden behind an HTTP hop. -b keeps ρ̂′ below 0.01 at up to
		// 3e5 req/s of 64-byte items, under every candidate the Markov
		// model ranks, so the engine prefetches the same top 4 whatever
		// λ̂ reads and the speculative work per request stays fixed.
		name: "engine-lib", objects: 2000, size: 64, cache: 256,
		bandwidth: 4e9, warm: time.Second,
	},
	{
		// The paper's setting: open-loop Poisson demand over a Markov
		// stream, speculation competing with demand for a link whose
		// demand-only utilisation is about 0.5. With two client
		// connections every miss holds one for its whole transmission,
		// so the generator itself runs at about half load too.
		name: "daemon-link", daemon: true, objects: 2000, size: 4096,
		cache: 256, slab: 4 << 20, bps: linkBps, prop: linkProp,
		rate: 180, bandwidth: linkBps, warm: 3 * time.Second,
	},
	{
		// Page loads of 8 correlated keys through /batch over the same
		// origin and link model: GetMultiBytes, demand batching and both
		// ends of the framed wire. A page load moves 8 times the bytes of
		// a GET; four times daemon-link's capacity keeps ρ′ near 0.5 at a
		// page-load rate that still gives a tail percentile enough
		// samples.
		name: "daemon-batch", daemon: true, objects: 2000, size: 4096,
		cache: 256, slab: 4 << 20, bps: 4 * linkBps, prop: linkProp,
		rate: 96, batch: true, fanout: 8, bandwidth: 4 * linkBps, warm: 3 * time.Second,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// structureSeed fixes each workload's structure across runs: the Markov
// chain's successor sets and the pages' key sets. The run's seed picks
// only the sample path through it, so different seeds measure the same
// workload rather than a different chain each time.
const structureSeed = 0x5eed

// markovStream draws n ids of the workload's Markov reference stream:
// the walk internal/workload.Markov takes with a zero MarkovConfig
// (with probability 0.1 a jump to a uniformly random item, else one of 4
// successors with weights halving), over the fixed chain.
func markovStream(seed uint64, objects, n int) []int64 {
	chain := workload.NewMarkov(workload.MarkovConfig{N: objects}, rng.NewStream(structureSeed, "markov"))
	succ := make([][]cache.ID, objects)
	for i := range succ {
		succ[i] = chain.Successors(cache.ID(i))
	}
	src := rng.NewStream(seed, "markov-walk")
	pick := rng.NewEmpirical([]float64{1, 0.5, 0.25, 0.125})
	state := src.Intn(objects)
	out := make([]int64, n)
	for i := range out {
		if rng.Bernoulli(src, 0.1) {
			state = src.Intn(objects)
		} else {
			state = int(succ[state][pick.Sample(src)])
		}
		out[i] = int64(state)
	}
	return out
}

// sessionStream draws n page loads of fanout keys each: a uniformly
// random page and its fixed key set, as internal/workload.Sessions draws
// them with a zero SessionConfig. The page and object ids together span
// [0, objects).
func sessionStream(seed uint64, objects, fanout, n int) [][]int64 {
	pages := objects / 5
	s := workload.NewSessions(workload.SessionConfig{Pages: pages, Fanout: fanout, Objects: objects - pages},
		rng.NewStream(structureSeed, "sessions"))
	src := rng.NewStream(seed, "sessions-walk")
	out := make([][]int64, n)
	for i := range out {
		for _, id := range s.PageKeys(src.Intn(pages)) {
			out[i] = append(out[i], int64(id))
		}
	}
	return out
}

// arrivals returns Poisson due times at rate per second over span.
func arrivals(seed uint64, rate float64, span time.Duration) []time.Duration {
	src := rng.NewStream(seed, "arrivals")
	exp := rng.Exponential{Rate: 1}
	return poissonDue(span, rate, func() float64 { return exp.Sample(src) })
}
