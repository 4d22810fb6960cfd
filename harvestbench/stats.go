package main

import (
	"fmt"
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending): the
// smallest sample x such that at least ceil(q·n) samples are ≤ x. Exact — no
// histogram buckets — so a reported p99 can never exceed the observed max.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// latencySummary is one latency row: the median, the p99, the max and the
// sample count they were computed from.
type latencySummary struct {
	N             int
	P50, P99, Max float64
}

// summarize sorts samples in place and returns their summary. It checks
// p50 ≤ p99 ≤ max and that the p99 has at least ten samples beyond it.
func summarize(samples []float64) (latencySummary, error) {
	if len(samples) < 1000 {
		return latencySummary{}, fmt.Errorf("%d latency samples: a p99 needs at least 1000 (ten beyond it)", len(samples))
	}
	slices.Sort(samples)
	s := latencySummary{
		N:   len(samples),
		P50: quantile(samples, 0.50),
		P99: quantile(samples, 0.99),
		Max: samples[len(samples)-1],
	}
	if !(s.P50 <= s.P99 && s.P99 <= s.Max) {
		return s, fmt.Errorf("quantiles out of order: p50 %.1f p99 %.1f max %.1f", s.P50, s.P99, s.Max)
	}
	return s, nil
}

// median returns the median of vs (the mean of the middle pair for an even
// count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
