package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the average of xs; 0 for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the set of percentiles the tail rule chooses from.
var tailLadder = []float64{99.99, 99.9, 99, 90}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile: the percentile is the ⌈p·n/100⌉-th
// smallest sample, and every sample ranked after it lies beyond.
func beyond(p float64, n int) int {
	return n - int(math.Ceil(p*float64(n)/100-1e-9))
}

// tailPercentile picks the highest percentile of n samples that has at
// least minBeyond samples beyond it; ok is false when even p90 has fewer
// (n < 100), in which case only the median is reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s))/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// latencySummary is a timing reported by the percentile rule: the median,
// the highest percentile with at least minBeyond samples beyond it, and
// the sample count.
type latencySummary struct {
	N      int
	Median float64
	TailP  float64 // 0 when N is too small for any tail percentile
	Tail   float64
}

func summarize(xs []float64) latencySummary {
	s := latencySummary{N: len(xs), Median: median(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailP, s.Tail = p, percentile(xs, p)
	}
	return s
}
