package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the sample at or below
// it. Failed operations enter as +Inf, so a percentile that reaches
// into the failures reads +Inf instead of flattering the system. An
// empty sample has no percentile; it reads +Inf too.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.Inf(1)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }
