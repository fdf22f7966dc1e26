package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// The traced run. End-to-end metrics come from untraced runs; this run
// replays a workload's stream and seed through an in-process stack built
// from the same public constructors as the daemon, and records spans
// only at seams the benchmark owns (see trace.go). Each daemon workload
// runs three phases of a third of the window each: prefetchd untraced
// (its /stats deltas are what the in-process stack must reproduce), the
// in-process stack untraced, and the same stack traced. The difference
// between the last two is the tracing overhead.

// Fidelity tolerances: the traced in-process stack must reproduce the
// daemon's hit ratio within fidelityHit (absolute) and its prefetches
// per request within fidelityPrefetch (relative, or fidelityHit
// absolute when both are that small). The two runs see the same keys at
// the same due times but not the same scheduling, so speculation that
// races a demand lands a little differently.
const (
	fidelityHit      = 0.05
	fidelityPrefetch = 0.25
	// maxSpans bounds the traced run's memory; tracedClosedWindow keeps
	// closed-loop traced phases (hundreds of thousands of calls a
	// second) within it.
	maxSpans           = 1_000_000
	tracedClosedWindow = time.Second
	spansWritten       = 100_000
)

// spanTree indexes a traced phase's spans by parent and holds each
// span's self time: its duration minus the part of its interval that its
// children's intervals cover (overlapping children count once; the
// parts of children outside the parent do not count).
type spanTree struct {
	spans    []span
	children map[int64][]int
	self     map[int64]int64
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: make(map[int64][]int), self: make(map[int64]int64, len(spans))}
	for i, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], i)
		}
	}
	var iv [][2]int64
	for _, s := range spans {
		iv = iv[:0]
		for _, c := range t.children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		t.self[s.ID] = s.dur() - covered(iv)
	}
	return t
}

// pathSelf sums the self times in the subtree under span i: the time
// each layer on the request's blocking path spent on it.
func (t *spanTree) pathSelf(i int) int64 {
	s := t.spans[i]
	total := t.self[s.ID]
	for _, c := range t.children[s.ID] {
		total += t.pathSelf(c)
	}
	return total
}

// layerSpans is what the per-layer metrics need from a span tree.
type layerSpans struct {
	engineCall, engineSelf, engineHit []float64 // µs
	demandFetch                       []float64 // ms
	fetchSelf                         []float64 // µs
	rt                                []float64 // ms
	engineKeys, specKeys              int64
	batchCalls, batchKeys             int64
	fetchErrors                       int64
	pathSelfMs                        []float64
}

// missFloor is the least time a request that misses can take: one
// object's transmission plus the propagation delay. Anything faster was
// a hit. Without a link it is 0 and every request counts as a hit.
func missFloor(spec workloadSpec) time.Duration {
	if spec.bps == 0 {
		return 0
	}
	return spec.prop + time.Duration(float64(spec.size)/spec.bps*1e9)
}

// analyze sorts a phase's spans into layers. An engine call counts as a
// hit when it caused no backend fetch and finished under floor.
func analyze(t *spanTree, floor time.Duration) layerSpans {
	var ls layerSpans
	for i, s := range t.spans {
		switch s.Kind {
		case kindEngine:
			d := float64(s.dur()) / 1e3
			ls.engineCall = append(ls.engineCall, d)
			ls.engineSelf = append(ls.engineSelf, float64(t.self[s.ID])/1e3)
			ls.engineKeys += int64(s.Keys)
			ls.pathSelfMs = append(ls.pathSelfMs, float64(t.pathSelf(i))/1e6)
			if len(t.children[s.ID]) == 0 && (floor == 0 || s.dur() < floor.Nanoseconds()) {
				ls.engineHit = append(ls.engineHit, d)
			}
		case kindFetch:
			if s.Demand {
				ls.demandFetch = append(ls.demandFetch, float64(s.dur())/1e6)
			} else {
				ls.specKeys += int64(s.Keys)
			}
			if s.Batch {
				ls.batchCalls++
				ls.batchKeys += int64(s.Keys)
			}
			if s.Failed {
				ls.fetchErrors++
			}
			ls.fetchSelf = append(ls.fetchSelf, float64(t.self[s.ID])/1e3)
		case kindRT:
			ls.rt = append(ls.rt, float64(s.dur())/1e6)
		}
	}
	return ls
}

// setSpanMetrics reports the engine, fabric and httpfetch layers from a
// traced phase.
func setSpanMetrics(rep *report, ls layerSpans, http bool) {
	call := summarize(ls.engineCall, 99)
	rep.set("engine.call_p50_us", call.P50)
	rep.set("engine.call_p99_us", call.PTail)
	rep.set("engine.self_p50_us", summarize(ls.engineSelf, 50).P50)
	rep.note("engine spans: %d calls, p50 %.2f µs, p%g %.2f µs", call.N, call.P50, call.Tail, call.PTail)
	df := summarize(ls.demandFetch, 99)
	rep.set("fabric.demand_fetch_p50_ms", df.P50)
	rep.set("fabric.demand_fetch_p99_ms", df.PTail)
	rep.set("fabric.spec_fetches_per_req", ratio(float64(ls.specKeys), float64(ls.engineKeys)))
	if ls.batchCalls > 0 {
		rep.set("fabric.batch_keys_per_call", float64(ls.batchKeys)/float64(ls.batchCalls))
	}
	rep.set("fabric.errors", float64(ls.fetchErrors))
	rep.note("fabric spans: %d demand fetches (p%g %.3f ms), %d speculative keys, %d batch calls",
		df.N, df.Tail, df.PTail, ls.specKeys, ls.batchCalls)
	if http {
		rep.set("httpfetch.rt_p50_ms", summarize(ls.rt, 50).P50)
		rep.set("httpfetch.self_p50_us", summarize(ls.fetchSelf, 50).P50)
	}
}

// setCoverage reports how much of the traced requests' time from send
// to reply the self times along each one's blocking path account for.
// Open-loop latency also counts the time a request waited for a free
// generator connection, which no layer of the program spends; that gap
// is reported beside the coverage.
func setCoverage(rep *report, ls layerSpans, r *driveResult) {
	path, svc := mean(ls.pathSelfMs), mean(r.svc)
	cov := ratio(path, svc)
	rep.set("trace.path_coverage", cov)
	verdict := "within 20%"
	if math.Abs(1-cov) > 0.2 {
		verdict = fmt.Sprintf("gap %.4f ms per request", svc-path)
	}
	rep.note("blocking path: mean self-time sum %.4f ms vs traced send-to-reply %.4f ms: %s; end-to-end from due time %.4f ms, of which generator lateness %.4f ms",
		path, svc, verdict, mean(r.lats), mean(r.late))
}

// gate compares the traced stack's engine counters with a reference run
// on the same seed and records a problem when they disagree.
func gate(rep *report, ref, traced delta, refName string) {
	hitDiff := traced.hitRatio() - ref.hitRatio()
	a, b := ref.prefetchPerReq(), traced.prefetchPerReq()
	pr := 1.0
	if a > 0 {
		pr = b / a
	}
	rep.set("trace.fidelity_hit_diff", hitDiff)
	rep.set("trace.fidelity_prefetch_ratio", pr)
	ok := math.Abs(hitDiff) <= fidelityHit &&
		(math.Abs(b-a) <= fidelityHit || math.Abs(pr-1) <= fidelityPrefetch)
	verdict := "pass"
	if !ok {
		verdict = "FAIL"
		rep.problem("traced stack does not reproduce %s's engine counters", refName)
	}
	rep.note("fidelity vs %s: hit %.4f vs %.4f, prefetch/req %.4f vs %.4f (tolerance ±%.2f hit, ±%.0f%% prefetch/req): %s",
		refName, traced.hitRatio(), ref.hitRatio(), b, a, fidelityHit, fidelityPrefetch*100, verdict)
}

// setEngineRatios reports the engine's counters over a window.
func setEngineRatios(rep *report, d delta) {
	rep.set("engine.hit_ratio", d.hitRatio())
	rep.set("engine.join_ratio", ratio(float64(d.joins), float64(d.requests)))
	rep.set("engine.prefetch_per_req", d.prefetchPerReq())
	rep.set("engine.prefetch_dropped", float64(d.dropped))
}

// setReplays runs the standalone predictor, store and h′ replays over
// the workload's stream.
func setReplays(rep *report, spec workloadSpec, seed uint64, payloads [][]byte, hPrimeHat float64) error {
	keys := replayKeys(spec, seed, 200_000)
	rep.set("predict.ns_per_op", predictNsPerOp(keys))
	getNs, putNs, err := storeNs(spec, payloads, keys)
	if err != nil {
		return err
	}
	rep.set("store.get_ns", getNs)
	rep.set("store.put_ns", putNs)
	h := noPrefetchHitRatio(spec.cache, keys)
	rep.set("estimator.h_prime_err", hPrimeHat-h)
	rep.note("estimator: ĥ′ %.4f vs offline no-prefetch LRU(%d) replay %.4f", hPrimeHat, spec.cache, h)
	return nil
}

// setController reports the controller's sampled estimates against
// ground truth: the offered rate, the link's measured demand-only
// utilisation and the measured prefetches per request.
func setController(rep *report, cv controllerView, offered, utilDemand, measuredNF float64) {

	rep.set("controller.lambda_hat", cv.lambdaHat)
	rep.set("controller.offered_rps", offered)
	rep.set("controller.lambda_ratio", ratio(cv.lambdaHat, offered))
	rep.set("controller.rho_prime_hat", cv.rhoPrimeHat)
	rep.set("controller.rho_prime_ratio", ratio(cv.rhoPrimeHat, utilDemand))
	rep.set("controller.nf_hat", cv.nfHat)
	rep.set("controller.nf_ratio", ratio(cv.nfHat, measuredNF))
	rep.set("controller.threshold_p50", cv.thresholdP50)
	rep.set("controller.threshold_iqr", cv.thresholdIQR)
	rep.note("controller (%d samples): λ̂ %.1f vs offered %.1f; ρ̂′ %.4f vs measured ρ′ %.4f; n̄(F) %.4f vs measured %.4f; p̂_th p50 %.4f iqr %.4f",
		cv.samples, cv.lambdaHat, offered, cv.rhoPrimeHat, utilDemand, cv.nfHat, measuredNF, cv.thresholdP50, cv.thresholdIQR)
}

func writeSpans(rep *report, o options, rec *recorder) {
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.tsv", o.workload, o.seed))
	if err := rec.write(path, spansWritten); err != nil {
		rep.note("spans: not written: %v", err)
		return
	}
	rep.note("spans: %d recorded (%d beyond the in-memory bound), first %d written to %s",
		len(rec.all()), rec.dropped, min(len(rec.all()), spansWritten), path)
}

// traceEngineLib is engine-lib's traced run: the same composition
// untraced and traced, half the window each (the traced half capped to
// keep its spans in memory).
func traceEngineLib(ctx context.Context, o options, spec workloadSpec, measure time.Duration) (*report, error) {
	payloads := catalog(spec.objects, spec.size)
	ver := verifier{payloads}
	rep := newReport()

	var fetchedU atomic.Int64
	eng, err := newLibEngine(spec, payloads, nil, &fetchedU)
	if err != nil {
		return nil, err
	}
	u, err := drive(ctx, spec, o.seed, measure/2, nil, &engineTarget{eng: eng, ver: ver}, 8)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	rec := newRecorder(maxSpans)
	var fetchedT atomic.Int64
	if eng, err = newLibEngine(spec, payloads, rec, &fetchedT); err != nil {
		return nil, err
	}
	tr, err := drive(ctx, spec, o.seed, min(measure/2, tracedClosedWindow), nil, &engineTarget{eng: eng, ver: ver, rec: rec}, 8)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for _, r := range []*driveResult{u, tr} {
		rep.attempted += r.attempted
		rep.failed += r.errors
		if r.firstErr != nil {
			rep.problem("first failure: %v", r.firstErr)
		}
	}

	du, dt := statsDelta(u.start.stats, u.end.stats), statsDelta(tr.start.stats, tr.end.stats)
	gate(rep, du, dt, "the untraced run")
	setEngineRatios(rep, du)
	rep.set("engine.allocs_per_req", float64(u.end.rt.mallocs-u.start.rt.mallocs)/float64(u.ops))
	rep.set("runtime.gc_cpu_fraction", ratio(u.end.rt.gcCPU-u.start.rt.gcCPU, u.end.rt.totalCPU-u.start.rt.totalCPU))
	rep.set("predict.accuracy", ratio(float64(du.used), float64(du.issued)))

	ls := analyze(newSpanTree(rec.all()), 0)
	setSpanMetrics(rep, ls, false)
	setCoverage(rep, ls, tr)
	thrU, thrT := float64(u.ops)/u.measure, float64(tr.ops)/tr.measure
	rep.set("trace.overhead_ratio", ratio(thrU, thrT))
	rep.note("overhead: %.0f req/s untraced vs %.0f traced", thrU, thrT)

	// The engine-lib "link" is the accounting one -b describes: demand
	// fetches (misses that did not join a prefetch) times item size.
	misses := u.end.stats.Misses - u.start.stats.Misses - du.joins
	utilDemand := float64(misses) * float64(spec.size) / u.measure / spec.bandwidth
	setController(rep, viewController(u.samples), u.offered, utilDemand, du.prefetchPerReq())
	if err := setReplays(rep, spec, o.seed, payloads, u.end.stats.HPrime); err != nil {
		return nil, err
	}
	rep.set("run.ops", float64(u.ops))
	writeSpans(rep, o, rec)
	rep.note("n/a on %s (reported as 0): %s", spec.name, strings.Join(sortedNA(rep), ", "))
	return rep, nil
}

// stackPhase is one run of the in-process stack against a fresh origin.
type stackPhase struct {
	res *driveResult
	rec *recorder
	st  *spanTransport
}

func runStackPhase(ctx context.Context, o options, spec workloadSpec, measure time.Duration, traced bool, rep *report) (*stackPhase, error) {
	payloads := catalog(spec.objects, spec.size)
	pending := newPendingSet()
	org, err := startOrigin(payloads, spec.bps, spec.prop, pending)
	if err != nil {
		return nil, err
	}
	defer org.close()
	ph := &stackPhase{}
	if traced {
		ph.rec = newRecorder(maxSpans)
		org.setRecorder(ph.rec)
	}
	eng, st, err := newStackEngine(spec, org.url(), ph.rec)
	if err != nil {
		return nil, err
	}
	ph.st = st
	t := &stackTarget{eng: eng, ver: verifier{payloads}, pending: pending, batch: spec.batch, rec: ph.rec}
	ph.res, err = drive(ctx, spec, o.seed, measure, org, t, 1)
	if qerr := eng.Quiesce(ctx); err == nil {
		err = qerr
	}
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r := ph.res
	rep.attempted += r.attempted
	rep.failed += r.errors
	if r.firstErr != nil {
		rep.problem("first failure: %v", r.firstErr)
	}
	return ph, nil
}

// traceDaemon is a daemon workload's traced run.
func traceDaemon(ctx context.Context, o options, spec workloadSpec, measure time.Duration) (*report, error) {
	rep := newReport()
	third := measure / 3
	a, err := runDaemonPhase(ctx, o, spec, third, 0, rep)
	if err != nil {
		return nil, err
	}
	b, err := runStackPhase(ctx, o, spec, third, false, rep)
	if err != nil {
		return nil, err
	}
	c, err := runStackPhase(ctx, o, spec, third, true, rep)
	if err != nil {
		return nil, err
	}
	ar, cr := a.res, c.res
	if len(ar.lats) == 0 || len(b.res.lats) == 0 || len(cr.lats) == 0 {
		return nil, errNoSamples
	}

	da, dc := statsDelta(ar.start.stats, ar.end.stats), statsDelta(cr.start.stats, cr.end.stats)
	gate(rep, da, dc, "prefetchd")
	setEngineRatios(rep, dc)
	rep.set("predict.accuracy", ratio(float64(da.used), float64(da.issued)))

	late := summarize(append([]float64(nil), ar.late...), 99)
	rep.set("loadgen.late_p99_ms", late.PTail)
	rep.note("generator lateness: p50 %.4f ms, p%g %.4f ms over %d requests", late.P50, late.Tail, late.PTail, late.N)
	rep.set("prefetchd.gc_per_kreq", float64(ar.end.gcs-ar.start.gcs)/(float64(ar.ops)/1000))

	tree := newSpanTree(c.rec.all())
	floor := missFloor(spec)
	ls := analyze(tree, floor)
	setSpanMetrics(rep, ls, true)
	setCoverage(rep, ls, cr)
	if n := c.st.conns.Load(); n > 0 {
		rep.set("httpfetch.conn_reuse_ratio", float64(c.st.reused.Load())/float64(n))
	}

	var daemonHits []float64
	for _, l := range ar.svc {
		if l < float64(floor)/1e6 {
			daemonHits = append(daemonHits, l*1e3)
		}
	}
	if len(daemonHits) > 0 && len(ls.engineHit) > 0 {
		dh, eh := summarize(daemonHits, 50).P50, summarize(ls.engineHit, 50).P50
		rep.set("prefetchd.self_p50_us", dh-eh)
		rep.note("prefetchd hit p50 %.2f µs (%d hits) vs in-process engine hit p50 %.2f µs (%d hits)", dh, len(daemonHits), eh, len(ls.engineHit))
	}

	bl, cl := summarize(b.res.lats, 50).P50, summarize(cr.lats, 50).P50
	rep.set("trace.overhead_ratio", ratio(cl, bl))
	rep.note("overhead: latency p50 %.4f ms untraced vs %.4f ms traced", bl, cl)

	if spec.bps > 0 {
		rep.set("link.util_total", a.link.utilTotal)
		rep.set("link.util_demand", a.link.utilDemand)
		rep.set("link.queue_wait_p50_ms", a.link.waitP50ms)
		rep.set("link.queue_wait_p99_ms", a.link.waitP99ms)
		rep.set("link.spec_bytes_ratio", a.link.specBytesRatio)
		rep.note("link (prefetchd run): ρ %.4f ρ′ %.4f, %d sends, queue wait p50 %.4f ms p%g %.4f ms, speculative bytes %.4f",
			a.link.utilTotal, a.link.utilDemand, a.link.sends, a.link.waitP50ms, a.link.waitTail, a.link.waitP99ms, a.link.specBytesRatio)
	}
	setController(rep, viewController(ar.samples), ar.offered, a.link.utilDemand, da.prefetchPerReq())
	if err := setReplays(rep, spec, o.seed, catalog(spec.objects, spec.size), ar.end.stats.HPrime); err != nil {
		return nil, err
	}
	rep.set("run.ops", float64(ar.ops))
	writeSpans(rep, o, c.rec)
	rep.note("n/a on %s (reported as 0): %s", spec.name, strings.Join(sortedNA(rep), ", "))
	return rep, nil
}
