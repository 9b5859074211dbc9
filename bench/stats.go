package main

import (
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be more than an anecdote about the slowest few requests.
const minBeyond = 10

// percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// nearest rank; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tail returns the value at the highest percentile not above want that
// still has minBeyond samples beyond it — and never below the median —
// together with the percentile it settled on.
func tail(sorted []float64, want float64) (value, p float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(want * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if half := (n + 1) / 2; rank < half {
		rank = half
	}
	return sorted[rank-1], float64(rank) / float64(n)
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, and 0 when b is 0: every per-request and per-fetch
// figure divides by a count that an idle layer leaves at zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumPrefix adds up the counters whose name starts with prefix: the
// registry keeps one counter per alias or interface under a shared stem.
func sumPrefix(counters map[string]int64, prefix string) int64 {
	var sum int64
	for name, v := range counters {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}
