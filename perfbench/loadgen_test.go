package main

import (
	"context"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a request runs.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(_ context.Context, t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	ms := time.Millisecond
	// Requests due every 1 ms, each taking 3 ms, on one worker: the
	// generator falls behind and every later request is charged the
	// wait behind the earlier ones.
	due := []time.Duration{0, 1 * ms, 2 * ms, 10 * ms}
	got := runOpenLoop(context.Background(), clk, due, 1, func(_, i int) error {
		clk.t += 3 * ms
		return nil
	})
	want := []sample{
		{lat: 3 * ms, late: 0},      // sent at 0, done at 3
		{lat: 5 * ms, late: 2 * ms}, // due 1, sent 3, done 6
		{lat: 7 * ms, late: 4 * ms}, // due 2, sent 6, done 9
		{lat: 3 * ms, late: 0},      // due 10: the backlog has drained
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestOpenLoopCountsUnsentAsFailed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clk := &fakeClock{}
	got := runOpenLoop(ctx, clk, []time.Duration{0, time.Millisecond}, 1, func(_, i int) error {
		cancel()
		return nil
	})
	if got[0].failed || !got[1].failed {
		t.Fatalf("samples = %+v, want only the unsent second request failed", got)
	}
}

func TestPoissonDueRate(t *testing.T) {
	gaps := []float64{1, 1, 1, 1}
	i := 0
	due := poissonDue(time.Second, 2, func() float64 { v := gaps[i]; i++; return v })
	if len(due) != 1 || due[0] != 500*time.Millisecond {
		t.Fatalf("due = %v, want [500ms]", due)
	}
}
