// Command perfbench is the repository's benchmark. It runs one named
// workload and prints every metric by name with its unit; the last line
// of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured without
// tracing; with -trace 1 they are the per-layer ones, from a traced
// replay of the same workload and seed (see traced.go).
//
// Build and run it from the repository root with perfbench/run.sh,
// which builds this command and prefetchd from source first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported from
// untraced runs. error_ratio is printed with them but reaches the JSON
// result as its attempted/failed counts, since a healthy run reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"origin_load_ratio", "ratio"},
	{"rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, named after the repository's
// modules (loadgen and link are the benchmark's own generator and
// origin). A metric that does not apply to a workload reads 0 and is
// listed as n/a in the printed report.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"prefetchd.self_p50_us", "us"},
	{"prefetchd.gc_per_kreq", "count"},
	{"engine.call_p50_us", "us"},
	{"engine.call_p99_us", "us"},
	{"engine.self_p50_us", "us"},
	{"engine.hit_ratio", "ratio"},
	{"engine.join_ratio", "ratio"},
	{"engine.prefetch_per_req", "ratio"},
	{"engine.prefetch_dropped", "count"},
	{"engine.allocs_per_req", "count"},
	{"predict.ns_per_op", "ns"},
	{"predict.accuracy", "ratio"},
	{"controller.lambda_ratio", "ratio"},
	{"controller.rho_prime_ratio", "ratio"},
	{"controller.nf_ratio", "ratio"},
	{"controller.threshold_p50", "ratio"},
	{"controller.threshold_iqr", "ratio"},
	{"controller.lambda_hat", "1/s"},
	{"controller.offered_rps", "1/s"},
	{"controller.rho_prime_hat", "ratio"},
	{"controller.nf_hat", "ratio"},
	{"estimator.h_prime_err", "ratio"},
	{"store.get_ns", "ns"},
	{"store.put_ns", "ns"},
	{"fabric.demand_fetch_p50_ms", "ms"},
	{"fabric.demand_fetch_p99_ms", "ms"},
	{"fabric.spec_fetches_per_req", "ratio"},
	{"fabric.batch_keys_per_call", "count"},
	{"fabric.errors", "count"},
	{"httpfetch.rt_p50_ms", "ms"},
	{"httpfetch.self_p50_us", "us"},
	{"httpfetch.conn_reuse_ratio", "ratio"},
	{"link.util_total", "ratio"},
	{"link.util_demand", "ratio"},
	{"link.queue_wait_p50_ms", "ms"},
	{"link.queue_wait_p99_ms", "ms"},
	{"link.spec_bytes_ratio", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.path_coverage", "ratio"},
	{"trace.fidelity_hit_diff", "ratio"},
	{"trace.fidelity_prefetch_ratio", "ratio"},
	{"run.ops", "count"},
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	daemonBin string
	outDir    string
}

// report collects one run's result.
type report struct {
	attempted, failed int64
	problems          []string // anything that makes the run incorrect
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// print writes the human-readable report and, last, the JSON result.
func (r *report) print(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	fmt.Fprintf(w, "%-32s %14.6g %s\n", "error_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window(s), in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.daemonBin, "daemon-bin", "", "prefetchd binary (daemon workloads)")
	flag.StringVar(&o.outDir, "out-dir", ".bench_build", "directory for trace files")
	flag.Parse()

	spec, ok := findWorkload(o.workload)
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	case o.seconds < 1:
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	case spec.daemon && o.daemonBin == "":
		fmt.Fprintln(os.Stderr, "perfbench: daemon workloads need -daemon-bin")
		return 2
	}
	o.trace = *traceFlag == 1

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping\n", sig)
		cancel()
		killAll()
		os.Exit(1)
	}()
	defer killAll() // a failing run leaves no daemon behind

	rep, err := runWorkload(ctx, o, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := rep.print(os.Stdout, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, o options, spec workloadSpec) (*report, error) {
	measure := time.Duration(o.seconds) * time.Second
	var rep *report
	var err error
	switch {
	case !spec.daemon && !o.trace:
		rep, err = engineLib(ctx, o, spec, measure)
	case !spec.daemon:
		rep, err = traceEngineLib(ctx, o, spec, measure)
	case !o.trace:
		rep, err = daemonWorkload(ctx, o, spec, measure)
	default:
		rep, err = traceDaemon(ctx, o, spec, measure)
	}
	if err != nil {
		return nil, err
	}
	rep.notes = append([]string{fmt.Sprintf("workload %s  seed %d  window %ds  trace %t  ops %d  (traffic crosses loopback only; the link is simulated)",
		spec.name, o.seed, o.seconds, o.trace, rep.attempted)}, rep.notes...)
	return rep, nil
}

// setWindowed reports throughput, latency and CPU per operation as the
// medians across a run's sub-windows (an open-loop run has one window).
// Latency follows the percentile rule: the tail reported is the highest
// percentile up to p99 with ten samples beyond it in a window.
func setWindowed(rep *report, r *driveResult, what string) {
	tail := r.tail
	var thr, p50, pt, cpu []float64
	for _, w := range r.windows {
		sort.Float64s(w.lats)
		thr = append(thr, float64(w.ops)/w.secs)
		p50 = append(p50, percentile(w.lats, 50))
		pt = append(pt, percentile(w.lats, tail))
		cpu = append(cpu, float64(w.cpu)/1e3/float64(w.ops))
	}
	rep.set("throughput_rps", median(thr))
	rep.set("latency_p50_ms", median(p50))
	rep.set("latency_p99_ms", median(pt))
	rep.set("cpu_us_per_req", median(cpu))
	rep.note("latency (%s): %d samples in %d window(s) of %.1fs; medians across windows: p50 %.4f ms, p%g %.4f ms",
		what, len(r.lats), len(r.windows), r.windows[0].secs, median(p50), tail, median(pt))
}

// sortedNA lists the per-layer metrics a report leaves unset.
func sortedNA(rep *report) []string {
	var na []string
	for _, d := range perLayer {
		if _, ok := rep.values[d.name]; !ok {
			na = append(na, d.name)
		}
	}
	sort.Strings(na)
	return na
}

var errNoSamples = errors.New("no successful requests in the measured window")
