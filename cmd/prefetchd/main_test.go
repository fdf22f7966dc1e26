package main

import (
	"bufio"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMAtStartupDrains boots the real binary and sends SIGTERM
// the moment it reports "serving on": the daemon must already be
// handling the signal — drain and exit 0 — rather than die by the
// default action. Repeated, because the window it guards is a few
// instructions wide.
func TestSIGTERMAtStartupDrains(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM delivery is POSIX-only")
	}
	bin := filepath.Join(t.TempDir(), "prefetchd")
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build prefetchd: %v\n%s", err, out)
	}
	root := t.TempDir()
	for i := 0; i < 5; i++ {
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-fs-root", root)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		lines := bufio.NewScanner(stderr)
		serving := false
		var log []string
		for lines.Scan() {
			log = append(log, lines.Text())
			if !serving && strings.Contains(lines.Text(), "serving on") {
				serving = true
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
			}
		}
		err = cmd.Wait()
		if !serving {
			t.Fatalf("run %d: daemon never reported serving:\n%s", i, strings.Join(log, "\n"))
		}
		if err != nil {
			t.Fatalf("run %d: SIGTERM right after startup: %v, want exit status 0:\n%s", i, err, strings.Join(log, "\n"))
		}
	}
}

// TestOversizedHeaderRefused: a request header beyond maxHeaderBytes
// is refused with 431 before it reaches a handler.
func TestOversizedHeaderRefused(t *testing.T) {
	var reached atomic.Bool
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { reached.Store(true) }))
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	req, err := http.NewRequest(http.MethodGet, "http://"+ln.Addr().String()+"/obj/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	// net/http reads up to 4 KiB past the limit before refusing.
	req.Header.Set("X-Padding", strings.Repeat("a", maxHeaderBytes+8<<10))
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header: status %d, want %d", resp.StatusCode, http.StatusRequestHeaderFieldsTooLarge)
	}
	if reached.Load() {
		t.Fatal("oversized request reached the handler")
	}
}
