package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the generator's concurrency: at most one goroutine per CPU
// of the 2-vCPU machine the benchmark was sized on, each on its own
// keep-alive connection.
const clients = 2

// sample is one request as the generator saw it. Open-loop latency runs
// from the request's due time, so a stalled generator or server charges
// its wait to every request queued behind it; late is how far past its
// due time the request was actually sent.
type sample struct {
	lat, late time.Duration
	failed    bool
}

// clock abstracts time for the open-loop generator so its due-time
// accounting can be tested without sleeping.
type clock interface {
	now() time.Duration
	sleepUntil(ctx context.Context, t time.Duration)
}

// wallClock is the real clock, measured from its start.
type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(ctx context.Context, t time.Duration) {
	sleepUntil(ctx, c.start.Add(t))
}

// spinWindow is how long before a deadline sleepUntil stops trusting
// the runtime's timer. An otherwise idle Go process blocks in epoll with
// millisecond timeouts, so its timers fire up to a millisecond late;
// that much noise on every open-loop send and every simulated
// transmission would swamp the latencies measured.
const spinWindow = 1200 * time.Microsecond

// sleepUntil waits until t or until ctx ends: on a timer for all but
// the last spinWindow, then yielding in a loop.
func sleepUntil(ctx context.Context, t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		tm := time.NewTimer(d)
		select {
		case <-tm.C:
		case <-ctx.Done():
			tm.Stop()
			return
		}
	}
	for ctx.Err() == nil && time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpenLoop issues request i at due[i] (on clk) from `workers`
// goroutines taking requests in due order, whatever the replies do.
// do(w, i) performs request i on worker w. It returns one sample per
// request; requests not sent before ctx ends count as failed.
func runOpenLoop(ctx context.Context, clk clock, due []time.Duration, workers int, do func(w, i int) error) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				clk.sleepUntil(ctx, due[i])
				if ctx.Err() != nil {
					out[i] = sample{failed: true}
					continue
				}
				sent := clk.now()
				err := do(w, i)
				doneAt := clk.now()
				out[i] = sample{lat: doneAt - due[i], late: sent - due[i], failed: err != nil}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// poissonDue returns the due times of a Poisson arrival process at
// rate per second over the given span, from the exponential gaps gaps
// supplies.
func poissonDue(span time.Duration, rate float64, gap func() float64) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += gap() / rate
		d := time.Duration(t * 1e9)
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}

// closedResult is one closed-loop worker's tally.
type closedResult struct {
	ops, failed int64
	lats        []time.Duration // every stride-th op
}

// runClosedLoop runs do(w, n) back to back on `workers` goroutines until
// ctx ends, timing every stride-th operation.
func runClosedLoop(ctx context.Context, workers, stride int, do func(w int, n int64) error) []closedResult {
	res := make([]closedResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &res[w]
			for n := int64(0); ctx.Err() == nil; n++ {
				if n%int64(stride) == 0 {
					t0 := time.Now()
					err := do(w, n)
					r.lats = append(r.lats, time.Since(t0))
					if err != nil {
						r.failed++
					}
				} else if err := do(w, n); err != nil {
					r.failed++
				}
				r.ops++
			}
		}(w)
	}
	wg.Wait()
	return res
}

// loadClient is the generator's HTTP client: `clients` keep-alive
// connections to one host.
type loadClient struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newLoadClient(base string) *loadClient {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &loadClient{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *loadClient) close() { c.tr.CloseIdleConnections() }

// get fetches path and appends the body to buf[:0].
func (c *loadClient) get(ctx context.Context, path string, buf []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return buf, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return buf, err
	}
	defer resp.Body.Close()
	buf, err = readAll(resp.Body, buf[:0])
	if err != nil {
		return buf, err
	}
	if resp.StatusCode != http.StatusOK {
		return buf, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return buf, nil
}

// readAll appends r's contents to buf, growing it as needed.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
