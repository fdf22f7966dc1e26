package main

import (
	"math"
	"testing"
)

func TestFIFOLinkQueueArithmetic(t *testing.T) {
	l := fifoLink{bps: 1000} // 1000 bytes/s: 100 bytes take 0.1 s
	steps := []struct {
		now        float64
		bytes      int
		start, end float64
	}{
		{0, 100, 0, 0.1},      // idle link: no wait
		{0.05, 100, 0.1, 0.2}, // arrives mid-transmission: waits 0.05 s
		{0.05, 300, 0.2, 0.5}, // queued behind both
		{1.0, 50, 1.0, 1.05},  // link idled in between: no wait
		{1.01, 0, 1.05, 1.05}, // empty reply still waits its turn
	}
	for i, s := range steps {
		start, end := l.admit(s.now, s.bytes)
		if math.Abs(start-s.start) > 1e-12 || math.Abs(end-s.end) > 1e-12 {
			t.Fatalf("step %d: admit(%g, %d) = (%g, %g), want (%g, %g)", i, s.now, s.bytes, start, end, s.start, s.end)
		}
	}
}

func TestOriginWindowUtilisation(t *testing.T) {
	o := &origin{}
	a := o.snapshot()
	o.acct = linkAcct{busyTotal: 0.6, busyDemand: 0.4, bytesTotal: 600, bytesDemand: 400, sends: 6}
	o.waits = []float64{0.001, 0.002, 0.003}
	b := o.snapshot()
	w := o.window(a, b, 1)
	if w.utilTotal != 0.6 || w.utilDemand != 0.4 {
		t.Fatalf("util = %g/%g, want 0.6/0.4", w.utilTotal, w.utilDemand)
	}
	if math.Abs(w.specBytesRatio-200.0/600) > 1e-12 {
		t.Fatalf("spec bytes ratio = %g, want 1/3", w.specBytesRatio)
	}
	if w.waitP50ms != 2 {
		t.Fatalf("wait p50 = %g ms, want 2", w.waitP50ms)
	}
}
