package main

import "testing"

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{10000, 99, 99},
		{1000, 99, 99}, // exactly 10 beyond p99
		{999, 99, 95},  // 9.99 beyond p99: fall back
		{200, 99, 95},  // 10 beyond p95
		{199, 99, 90},
		{20, 99, 50}, // only the median has 10 beyond it
		{19, 99, 0},  // not even that
		{100000, 99.9, 99.9},
		{100000, 99, 99}, // never above the percentile asked for
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.got {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	d := summarize(v, 99)
	if d.N != 1000 || d.P50 != 500 || d.Tail != 99 || d.PTail != 990 {
		t.Fatalf("summarize = %+v, want N 1000, p50 500, p99 990", d)
	}
	d = summarize(v[:150], 99) // 150 samples: p90 is the highest with 10 beyond
	if d.Tail != 90 || d.PTail != 135 {
		t.Fatalf("summarize(150) = %+v, want p90 = 135", d)
	}
}

func TestMedianAndIQR(t *testing.T) {
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
	if q := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8}); q != 4 {
		t.Fatalf("iqr = %g, want 4", q)
	}
}
