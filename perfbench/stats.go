package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer is noise, so the benchmark falls
// back to the highest percentile that has at least this many.
const minTail = 10

// tailLadder is the set of percentiles tailPercentile may fall back to,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile no greater than want that
// leaves at least minTail of n samples beyond it. It returns 0 when n is
// too small for even the median.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if float64(n)*(100-p)/100 >= minTail {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// dist summarises a sample: its count, median and the tail percentile
// the minTail rule allows (Tail names which one it is).
type dist struct {
	N          int
	P50, PTail float64
	Tail       float64
}

// summarize sorts values in place and reports the median and the tail
// percentile closest to want that the sample supports.
func summarize(values []float64, want float64) dist {
	sort.Float64s(values)
	d := dist{N: len(values), P50: percentile(values, 50)}
	d.Tail = tailPercentile(len(values), want)
	if d.Tail > 0 {
		d.PTail = percentile(values, d.Tail)
	} else {
		d.PTail = d.P50
	}
	return d
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqr returns the distance between the first and third quartiles of
// values (nearest rank), or 0 for fewer than two values.
func iqr(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 75) - percentile(s, 25)
}

// mean returns the arithmetic mean of values, or 0 when empty.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
