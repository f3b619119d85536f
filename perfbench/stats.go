package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps q*n that is whole in exact arithmetic (0.9*100)
	// from rounding up past its rank.
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 0.5 quantile; it needs at least one sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest whole percentile of xs that has at least
// minTail samples beyond it, and its value. It fails below minTail+1
// samples, where no such percentile exists.
func tail(xs []float64) (pct int, v float64, err error) {
	n := len(xs)
	if n <= minTail {
		return 0, 0, fmt.Errorf("need more than %d samples for a tail percentile, have %d", minTail, n)
	}
	pct = int(math.Floor(100 * float64(n-minTail) / float64(n)))
	return pct, quantile(xs, float64(pct)/100), nil
}

// p90 returns the 90th percentile, refusing fewer than 100 samples:
// below that, fewer than minTail samples lie beyond it.
func p90(xs []float64) (float64, error) {
	if len(xs) < 100 {
		return 0, fmt.Errorf("p90 needs at least 100 samples, have %d", len(xs))
	}
	return quantile(xs, 0.9), nil
}
