package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/prefetcher"
)

// target is the system under load: the prefetchd subprocess, the
// in-process stack the traced run replays through, or the bare engine.
type target interface {
	// get serves one operation — a key, or a page load's keys — on
	// worker w, verifies every payload and returns the payload bytes
	// delivered.
	get(ctx context.Context, w int, keys []int64) (int, error)
	// snap records the target's counters at a window boundary.
	snap(ctx context.Context) (tsnap, error)
}

// tsnap is a target's counters at one instant.
type tsnap struct {
	at    time.Time
	cpu   time.Duration // process CPU of whatever serves the requests
	stats prefetcher.Stats
	gcs   int64 // daemon GC cycles from gctrace
	link  linkAcct
	rt    runtimeSnap // in-process targets only
}

// windowStarter is a target that wants to know when the measured
// window begins (a traced target drops the warm-up's spans).
type windowStarter interface{ windowStart() }

// driveResult is one loaded run, its latencies restricted to the
// measured window.
type driveResult struct {
	ops, failed       int64     // measured window
	attempted, errors int64     // whole run, warm-up included
	lats, late        []float64 // ms: from due time, and send lateness
	svc               []float64 // ms: from send to reply
	measure           float64   // seconds in the measured window
	delivered         int64     // payload bytes, whole run
	keys              int64     // keys served in the window
	offered           float64   // keys/s due (open loop) or served (closed loop) in the window
	start, end        tsnap
	samples           []prefetcher.Stats // about once a second in the window
	windows           []window           // sub-windows of the measured window
	tail              float64            // percentile every window can support
	firstErr          error
}

// subWindow is the length of a closed-loop sub-window; an open-loop
// window is split into openWindows by due time.
const (
	subWindow   = 2 * time.Second
	openWindows = 3
)

// window is one sub-window's tally.
type window struct {
	ops, failed int64
	secs        float64
	cpu         time.Duration
	lats        []float64 // ms
}

// keySource hands out the workload's operations.
type keySource struct {
	single  []int64   // Markov ids
	session [][]int64 // page loads
}

func (k keySource) op(i int) []int64 {
	if k.session != nil {
		return k.session[i%len(k.session)]
	}
	j := i % len(k.single)
	return k.single[j : j+1]
}

// drive runs warm-up and the measured window against t. Closed-loop
// workloads run `clients` back-to-back workers, each on its own stretch
// of the stream; open-loop ones follow Poisson due times.
func drive(ctx context.Context, spec workloadSpec, seed uint64, measure time.Duration, o *origin, t target, stride int) (*driveResult, error) {
	r := &driveResult{}
	// Per-worker byte counts on separate cache lines: a shared counter
	// would cost the closed-loop workers a contended write per op.
	var delivered [clients]struct {
		n int64
		_ [56]byte
	}
	defer func() {
		for _, d := range delivered {
			r.delivered += d.n
		}
	}()
	var mu sync.Mutex
	record := func(w, n int, err error) {
		delivered[w].n += int64(n)
		if err != nil {
			mu.Lock()
			if r.firstErr == nil {
				r.firstErr = err
			}
			mu.Unlock()
		}
	}
	snap := func() (tsnap, error) {
		s, err := t.snap(ctx)
		if o != nil {
			s.link = o.snapshot()
		}
		s.at = time.Now()
		return s, err
	}
	startWindow := func() (tsnap, error) {
		if ws, ok := t.(windowStarter); ok {
			ws.windowStart()
		}
		return snap()
	}
	pctx, stopPoll := context.WithCancel(ctx)
	var pollWG sync.WaitGroup
	poll := func() {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			tk := time.NewTicker(time.Second)
			defer tk.Stop()
			for {
				select {
				case <-pctx.Done():
					return
				case <-tk.C:
					if s, err := t.snap(pctx); err == nil {
						r.samples = append(r.samples, s.stats)
					}
				}
			}
		}()
	}
	defer stopPoll()

	if spec.rate == 0 {
		keys := keySource{single: markovStream(seed, spec.objects, 1<<18)}
		var base [clients]int64 // each worker's position in its stretch
		do := func(w int, n int64) error {
			i := w*len(keys.single)/clients + int(base[w]+n)
			got, err := t.get(ctx, w, keys.op(i))
			record(w, got, err)
			return err
		}
		tally := func(res []closedResult) window {
			var win window
			for w, c := range res {
				base[w] += c.ops
				win.ops += c.ops
				win.failed += c.failed
				for _, l := range c.lats {
					win.lats = append(win.lats, float64(l)/1e6)
				}
			}
			r.attempted += win.ops
			r.errors += win.failed
			return win
		}
		wctx, cancel := context.WithTimeout(ctx, spec.warm)
		tally(runClosedLoop(wctx, clients, stride, do))
		cancel()
		var err error
		if r.start, err = startWindow(); err != nil {
			return nil, err
		}
		poll()
		// The window runs as back-to-back sub-windows; medians across
		// them keep a burst of outside load from moving the result.
		k := int(measure / subWindow)
		if k < 1 {
			k = 1
		}
		prev := r.start
		for j := 0; j < k; j++ {
			mctx, cancel := context.WithTimeout(ctx, measure/time.Duration(k))
			win := tally(runClosedLoop(mctx, clients, stride, do))
			cancel()
			cur, err := snap()
			if err != nil {
				return nil, err
			}
			win.secs, win.cpu = cur.at.Sub(prev.at).Seconds(), cur.cpu-prev.cpu
			r.windows = append(r.windows, win)
			r.ops += win.ops
			r.failed += win.failed
			r.lats = append(r.lats, win.lats...)
			prev = cur
		}
		r.end = prev
		stopPoll()
		pollWG.Wait()
		minN := len(r.windows[0].lats)
		for _, w := range r.windows {
			minN = min(minN, len(w.lats))
		}
		r.tail = tailPercentile(minN, 99)
		r.svc = r.lats
		r.measure = r.end.at.Sub(r.start.at).Seconds()
		r.keys = r.ops
		r.offered = float64(r.keys) / r.measure
		return r, nil
	}

	due := arrivals(seed, spec.rate, spec.warm+measure)
	var keys keySource
	if spec.batch {
		keys.session = sessionStream(seed, spec.objects, spec.fanout, len(due))
	} else {
		keys.single = markovStream(seed, spec.objects, len(due))
	}
	// Open-loop sub-windows by due time.
	k := openWindows
	step := measure / time.Duration(k)
	// The tail percentile follows from the expected count per window,
	// so every run of a workload reports the same one.
	r.tail = tailPercentile(int(spec.rate*step.Seconds()), 99)
	bounds := make([]tsnap, k+1)
	boundErrs := make([]error, k+1)
	var bwg sync.WaitGroup
	for j := 0; j <= k; j++ {
		bwg.Add(1)
		j := j
		tm := time.AfterFunc(spec.warm+time.Duration(j)*step, func() {
			defer bwg.Done()
			if j == 0 {
				bounds[0], boundErrs[0] = startWindow()
				poll()
				return
			}
			bounds[j], boundErrs[j] = snap()
		})
		defer tm.Stop()
	}
	var inWindow atomic.Int64
	samples := runOpenLoop(ctx, wallClock{start: time.Now()}, due, clients, func(w, i int) error {
		got, err := t.get(ctx, w, keys.op(i))
		record(w, got, err)
		if due[i] >= spec.warm {
			inWindow.Add(int64(len(keys.op(i))))
		}
		return err
	})
	bwg.Wait()
	for _, err := range boundErrs {
		if err != nil {
			return nil, err
		}
	}
	r.start = bounds[0]
	var err error
	if r.end, err = snap(); err != nil {
		return nil, err
	}
	stopPoll()
	pollWG.Wait()
	r.windows = make([]window, k)
	for j := range r.windows {
		r.windows[j] = window{secs: bounds[j+1].at.Sub(bounds[j].at).Seconds(), cpu: bounds[j+1].cpu - bounds[j].cpu}
	}
	for i, s := range samples {
		r.attempted++
		if s.failed {
			r.errors++
		}
		if due[i] < spec.warm {
			continue
		}
		win := &r.windows[min(int((due[i]-spec.warm)/step), k-1)]
		win.ops++
		r.ops++
		if s.failed {
			win.failed++
			r.failed++
			continue
		}
		lat := float64(s.lat) / 1e6
		win.lats = append(win.lats, lat)
		r.lats = append(r.lats, lat)
		r.late = append(r.late, float64(s.late)/1e6)
		r.svc = append(r.svc, float64(s.lat-s.late)/1e6)
	}
	r.measure = measure.Seconds()
	r.keys = inWindow.Load()
	r.offered = float64(r.keys) / r.measure
	return r, nil
}

// delta is the change in an engine's counters over a window.
type delta struct {
	requests, hits, joins int64
	issued, used, dropped int64
}

func statsDelta(a, b prefetcher.Stats) delta {
	return delta{
		requests: b.Requests - a.Requests,
		hits:     b.Hits - a.Hits,
		joins:    b.Joins - a.Joins,
		issued:   b.PrefetchIssued - a.PrefetchIssued,
		used:     b.PrefetchUsed - a.PrefetchUsed,
		dropped:  b.PrefetchDropped - a.PrefetchDropped,
	}
}

func (d delta) hitRatio() float64       { return ratio(float64(d.hits), float64(d.requests)) }
func (d delta) prefetchPerReq() float64 { return ratio(float64(d.issued), float64(d.requests)) }

// controllerView summarises the controller's sampled estimates against
// ground truth measured outside the engine.
type controllerView struct {
	lambdaHat, rhoPrimeHat, nfHat float64
	thresholdP50, thresholdIQR    float64
	samples                       int
}

func viewController(samples []prefetcher.Stats) controllerView {
	var l, rp, nf, th []float64
	for _, s := range samples {
		l = append(l, s.Lambda)
		rp = append(rp, s.RhoPrime)
		nf = append(nf, s.NF)
		th = append(th, s.Threshold)
	}
	return controllerView{
		lambdaHat: mean(l), rhoPrimeHat: mean(rp), nfHat: mean(nf),
		thresholdP50: median(th), thresholdIQR: iqr(th), samples: len(samples),
	}
}
