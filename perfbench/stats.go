package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and the number of samples it was taken from: the smallest value
// with at least p% of the samples at or below it. xs need not be sorted
// and is not modified. With no samples it returns (0, 0).
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return s[k-1], n
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile position: a tail percentile is only worth reporting when at
// least ten samples lie beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// median is the 50th percentile by the nearest-rank rule.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// geomean is the geometric mean of strictly positive values; it returns
// 0 when xs is empty or holds a value <= 0 (a latency of 0 means the
// measurement is broken, not fast).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
