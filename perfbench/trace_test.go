package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},             // engine call
		{ID: 2, Parent: 1, Start: 10, End: 40},  // fetch
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlapping fetch: union 10..60
		{ID: 4, Parent: 1, Start: 90, End: 130}, // runs past the parent: only 90..100 counts
		{ID: 5, Parent: 2, Start: 15, End: 35},  // round trip under fetch 2
		{ID: 6, Parent: 5, Start: 20, End: 25},  // link wait under the round trip
		{ID: 7, Start: 200, End: 210},           // speculative fetch, no parent
	}
	tree := newSpanTree(spans)
	self := tree.self
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 20, 3: 30, 4: 40, 5: 20 - 5, 6: 5, 7: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	// Along span 1's subtree the self times sum to its duration plus the
	// parts of children outside it (span 4's 30) and the overlap counted
	// in both fetches (20).
	if got := tree.pathSelf(0); got != 40+10+30+40+15+5 {
		t.Errorf("pathSelf = %d, want 140", got)
	}
}

func TestCoveredMergesIntervals(t *testing.T) {
	if c := covered([][2]int64{{5, 10}, {0, 3}, {2, 4}, {10, 12}}); c != 4+7 {
		t.Fatalf("covered = %d, want 11", c)
	}
	if c := covered(nil); c != 0 {
		t.Fatalf("covered(nil) = %d", c)
	}
}
