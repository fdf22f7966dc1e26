package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

const (
	// engineSetupRounds and daemonSetupRounds are how many times a run
	// sets its system up to time setup_s; the median is reported.
	engineSetupRounds = 101
	daemonSetupRounds = 15
	// probeSettle is how long a setup probe daemon runs before SIGTERM.
	probeSettle = 100 * time.Millisecond
	// generatorGOGC is this process's GOGC while it only generates load
	// for, and serves the origin behind, a daemon.
	generatorGOGC = 400
)

// engineSetups times prefetcher.New until the first Get has been served.
func engineSetups(ctx context.Context, spec workloadSpec, payloads [][]byte, rounds int) ([]float64, error) {
	ver := verifier{payloads}
	var out []float64
	for i := 0; i < rounds; i++ {
		var fetched atomic.Int64
		t0 := time.Now()
		eng, err := newLibEngine(spec, payloads, nil, &fetched)
		if err != nil {
			return nil, err
		}
		t := &engineTarget{eng: eng, ver: ver}
		_, err = t.get(ctx, 0, []int64{int64(i % spec.objects)})
		out = append(out, time.Since(t0).Seconds())
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("setup round %d: %w", i, err)
		}
	}
	return out, nil
}

// engineLib is engine-lib's end-to-end run.
func engineLib(ctx context.Context, o options, spec workloadSpec, measure time.Duration) (*report, error) {
	payloads := catalog(spec.objects, spec.size)
	rep := newReport()
	setups, err := engineSetups(ctx, spec, payloads, engineSetupRounds)
	if err != nil {
		return nil, err
	}
	var fetched atomic.Int64
	eng, err := newLibEngine(spec, payloads, nil, &fetched)
	if err != nil {
		return nil, err
	}
	res, err := drive(ctx, spec, o.seed, measure, nil, &engineTarget{eng: eng, ver: verifier{payloads}}, 8)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS("self")
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = res.attempted, res.errors
	if res.firstErr != nil {
		rep.problem("first failure: %v", res.firstErr)
	}
	if len(res.lats) == 0 {
		return nil, errNoSamples
	}
	rep.set("setup_s", median(setups))
	setWindowed(rep, res, "every 8th Get, closed loop, 2 goroutines")
	rep.set("origin_load_ratio", ratio(float64(fetched.Load()), float64(res.attempted)))
	rep.set("rss_mb", rss)
	d := statsDelta(res.start.stats, res.end.stats)
	rep.note("setup: median of %d rounds of New + first Get", len(setups))
	rep.note("engine: hit %.3f  prefetch/req %.3f  measured %.0f req/s  λ̂ %.0f/s  ĥ′ %.3f  ρ̂′ %.3f  p̂_th %.3f",
		d.hitRatio(), d.prefetchPerReq(), float64(res.ops)/res.measure,
		res.end.stats.Lambda, res.end.stats.HPrime, res.end.stats.RhoPrime, res.end.stats.Threshold)
	return rep, nil
}

// daemonPhase is one prefetchd run against a fresh origin: setup probes,
// the loaded run, and a clean SIGTERM stop.
type daemonPhase struct {
	res         *driveResult
	setups      []float64
	rss         float64
	originBytes int64
	link        linkWindow
}

func runDaemonPhase(ctx context.Context, o options, spec workloadSpec, measure time.Duration, probes int, rep *report) (*daemonPhase, error) {
	// This process is only the daemon's load generator and origin here;
	// collecting its garbage less often keeps its GC from competing with
	// the daemon for the CPUs in bursts.
	defer debug.SetGCPercent(debug.SetGCPercent(generatorGOGC))
	payloads := catalog(spec.objects, spec.size)
	pending := newPendingSet()
	org, err := startOrigin(payloads, spec.bps, spec.prop, pending)
	if err != nil {
		return nil, err
	}
	defer org.close()
	args := daemonArgs(spec, org.url())
	ph := &daemonPhase{}
	for i := 0; i < probes; i++ {
		d, err := startDaemon(o.daemonBin, args)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, d.setup.Seconds())
		// prefetchd installs its SIGTERM handler only after it logs that
		// it is serving; a SIGTERM in that window kills it by the default
		// action. A probe lets the daemon settle before stopping it.
		time.Sleep(probeSettle)
		if err := d.stop(); err != nil {
			rep.problem("setup probe %d: %v", i, err)
			rep.failed++
		}
	}
	d, err := startDaemon(o.daemonBin, args)
	if err != nil {
		return nil, err
	}
	defer d.kill() // no-op after a clean stop
	ph.setups = append(ph.setups, d.setup.Seconds())
	lc := newLoadClient(d.url())
	defer lc.close()
	t := &daemonTarget{d: d, lc: lc, ver: verifier{payloads}, pending: pending, batch: spec.batch}
	ph.res, err = drive(ctx, spec, o.seed, measure, org, t, 1)
	if err != nil {
		return nil, err
	}
	if ph.rss, err = peakRSS(fmt.Sprint(d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	lc.close()
	if err := d.stop(); err != nil {
		rep.problem("stop: %v", err)
		rep.failed++
	}
	ph.originBytes = org.snapshot().bytesTotal
	r := ph.res
	ph.link = org.window(r.start.link, r.end.link, r.end.at.Sub(r.start.at).Seconds())
	rep.attempted += r.attempted
	rep.failed += r.errors
	if r.firstErr != nil {
		rep.problem("first failure: %v", r.firstErr)
	}
	return ph, nil
}

// opName is what one operation of a workload is.
func opName(spec workloadSpec) string {
	if spec.batch {
		return fmt.Sprintf("page load of %d keys via GET /batch", spec.fanout)
	}
	return "GET /obj"
}

// daemonWorkload is a daemon workload's end-to-end run.
func daemonWorkload(ctx context.Context, o options, spec workloadSpec, measure time.Duration) (*report, error) {
	rep := newReport()
	ph, err := runDaemonPhase(ctx, o, spec, measure, daemonSetupRounds-1, rep)
	if err != nil {
		return nil, err
	}
	r := ph.res
	if len(r.lats) == 0 {
		return nil, errNoSamples
	}
	rep.set("setup_s", median(ph.setups))
	setWindowed(rep, r, fmt.Sprintf("%s, open loop %.0f/s, from due time", opName(spec), spec.rate))
	rep.note("generator: mean send-to-reply %.4f ms, mean lateness %.4f ms", mean(r.svc), mean(r.late))
	rep.set("origin_load_ratio", ratio(float64(ph.originBytes), float64(r.delivered)))
	rep.set("rss_mb", ph.rss)
	rep.note("setup: median of %d prefetchd starts, exec until the first request was served", len(ph.setups))
	rep.note("origin load: %d bytes sent by the origin for %d payload bytes delivered, daemon lifetime", ph.originBytes, r.delivered)
	groundTruth(rep, spec, r, ph.link)
	return rep, nil
}

// groundTruth prints the controller's estimates next to the values
// measured outside the engine, with the engine's and the link's counters.
func groundTruth(rep *report, spec workloadSpec, r *driveResult, lw linkWindow) {
	d := statsDelta(r.start.stats, r.end.stats)
	setController(rep, viewController(r.samples), r.offered, lw.utilDemand, d.prefetchPerReq())
	rep.note("engine: hit %.3f  joins %d  prefetch issued %d used %d dropped %d  ĥ′ %.3f",
		d.hitRatio(), d.joins, d.issued, d.used, d.dropped, r.end.stats.HPrime)
	if spec.bps > 0 {
		rep.note("link: %.3g B/s + %v propagation; ρ %.3f ρ′ %.3f; queue wait p50 %.3f ms p%g %.3f ms; speculative share of bytes %.3f",
			spec.bps, spec.prop, lw.utilTotal, lw.utilDemand, lw.waitP50ms, lw.waitTail, lw.waitP99ms, lw.specBytesRatio)
	}
}
