package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie above a reported
// percentile. Below it the percentile is one or two outliers, not a
// property of the system, so percentile refuses to report it.
const minTail = 10

// pct is a percentile together with the sample count it was taken over.
type pct struct {
	Value float64
	N     int
}

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// refuses, with an error, when fewer than minTail samples lie above the
// chosen rank: p50 needs at least 20 samples, p90 100 and p99 1000.
func percentile(xs []float64, q float64) (pct, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return pct{N: n}, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if above := n - rank; above < minTail {
		return pct{N: n}, fmt.Errorf("p%g over %d samples leaves %d above it, need %d", q*100, n, above, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pct{Value: s[rank-1], N: n}, nil
}

// minSamples is the smallest sample count percentile accepts for q.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minTail {
			return n
		}
	}
}

// median aggregates repeated measurements of one quantity (one value per
// pass or per set-up), so it needs no tail and accepts any count >= 1.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
