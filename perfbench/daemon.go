package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/prefetcher"
)

// drainBudget is the shutdown budget prefetchd gets; a daemon that has
// not exited zero this long after SIGTERM (plus slack) is a failure.
const drainBudget = 5 * time.Second

// daemon is one prefetchd subprocess.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	setup time.Duration // exec until the first request was served

	gcs    atomic.Int64 // "gc N @…" lines from GODEBUG=gctrace=1
	mu     sync.Mutex
	tail   []string // last stderr lines, for diagnostics
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// live holds every daemon not yet reaped, so a signal or a failure
// anywhere can stop them all.
var live = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: make(map[*daemon]bool)}

// killAll SIGKILLs every daemon still running and waits for each.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.m))
	for d := range live.m {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		_ = d.cmd.Process.Kill() // already-exited is fine
		<-d.exited
	}
}

// startDaemon execs prefetchd with args plus a loopback listener and
// returns once it has served its first request.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-shutdown-timeout", drainBudget.String()}, args...)...)
	// One P: the daemon runs its Go code on one of the two CPUs the
	// benchmark is sized for, the generator and origin on the other. With
	// a second, idle P the runtime wakes a spinning thread on nearly every
	// event of a lightly loaded daemon, and that spinning, charged to the
	// daemon's CPU time, grows with whatever else the machine runs.
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1", "GOMAXPROCS=1")
	// The kernel kills the daemon if the benchmark dies without
	// stopping it, so no run leaves an orphan behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	live.Lock()
	live.m[d] = true
	live.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "gc ") {
				d.gcs.Add(1)
				continue
			}
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if i := strings.Index(line, "serving on "); i >= 0 {
				f := strings.Fields(line[i+len("serving on "):])
				if len(f) > 0 {
					select {
					case addrc <- f[0]:
					default:
					}
				}
			}
		}
		d.err = cmd.Wait() // after stderr hit EOF, as Wait requires
		live.Lock()
		delete(live.m, d)
		live.Unlock()
		close(d.exited)
	}()

	select {
	case d.addr = <-addrc:
	case <-d.exited:
		return nil, fmt.Errorf("prefetchd exited before serving: %v\n%s", d.err, d.stderrTail())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("prefetchd did not start listening within 30s\n%s", d.stderrTail())
	}
	c := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	resp, err := c.Get(d.url() + "/healthz")
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("first request: %w", err)
	}
	resp.Body.Close()
	d.setup = time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, fmt.Errorf("first request: status %d", resp.StatusCode)
	}
	return d, nil
}

func (d *daemon) url() string { return "http://" + d.addr }

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// kill SIGKILLs the daemon and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // may have exited already
	<-d.exited
}

// stop sends SIGTERM and requires a zero exit within the drain budget;
// a daemon that overruns is killed and reported.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-d.exited
		return fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(drainBudget + 2*time.Second):
		d.kill()
		return fmt.Errorf("prefetchd still running %v after SIGTERM", drainBudget+2*time.Second)
	}
	if d.err != nil {
		return fmt.Errorf("prefetchd exit: %v\n%s", d.err, d.stderrTail())
	}
	return nil
}

// cpu returns the CPU time the daemon's threads have used so far.
func (d *daemon) cpu() (time.Duration, error) {
	return procCPU(d.cmd.Process.Pid)
}

// procCPU sums the on-CPU nanoseconds of pid's threads from
// /proc/<pid>/task/*/schedstat. /proc/<pid>/stat counts in 10 ms clock
// ticks, a few percent of a lightly loaded daemon's CPU in a window.
// Go threads do not exit, so the sum loses nothing between windows.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited after ReadDir
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("empty /proc schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed /proc schedstat: %w", err)
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// peakRSS returns VmHWM, the peak resident set, of a process in MiB.
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stats fetches the daemon's single space's engine snapshot.
func (d *daemon) stats(ctx context.Context) (prefetcher.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url()+"/stats", nil)
	if err != nil {
		return prefetcher.Stats{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return prefetcher.Stats{}, err
	}
	defer resp.Body.Close()
	var reply struct {
		Spaces map[string]prefetcher.Stats `json:"spaces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return prefetcher.Stats{}, fmt.Errorf("decode /stats: %w", err)
	}
	if len(reply.Spaces) != 1 {
		return prefetcher.Stats{}, fmt.Errorf("/stats has %d spaces, want 1", len(reply.Spaces))
	}
	for _, st := range reply.Spaces {
		return st, nil
	}
	return prefetcher.Stats{}, nil
}
