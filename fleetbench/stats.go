package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the fixed set of percentiles the tail is read from.
// Reading from a ladder instead of "exactly ten from the top" keeps the
// reported percentile the same from run to run when the sample count
// is the same, which open-loop workloads guarantee.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie strictly above a percentile's
// rank for it to count as the tail.
const minBeyond = 10

// rankOf is the 0-based index of percentile p in n sorted samples
// (nearest-rank: the smallest value with at least p% of samples at or
// below it).
func rankOf(p float64, n int) int {
	// The epsilon keeps p·n that is whole in exact arithmetic (99.9% of
	// 12000) from rounding up a rank in floating point.
	r := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return min(max(r, 0), n-1)
}

// Tail picks the highest ladder percentile with at least minBeyond
// samples beyond it. It returns the percentile, its value, and how
// many samples lie beyond; ok is false when even the median lacks
// minBeyond samples beyond it. sorted must be ascending.
func Tail(sorted []float64) (p, value float64, beyond int, ok bool) {
	n := len(sorted)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		r := rankOf(tailLadder[i], n)
		if b := n - 1 - r; n > 0 && b >= minBeyond {
			return tailLadder[i], sorted[r], b, true
		}
	}
	return 0, 0, 0, false
}

// Median of ascending samples (nearest-rank); 0 for none.
func Median(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(50, len(sorted))]
}

// Mean of samples; 0 for none.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// MedianDur is the median of durations.
func MedianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(Median(sortedCopy(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
