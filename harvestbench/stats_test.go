package main

import (
	"math/rand"
	"slices"
	"testing"
)

// countAtOrBelow is the definition nearest-rank quantiles are checked
// against: how many samples are ≤ x.
func countAtOrBelow(samples []float64, x float64) int {
	n := 0
	for _, v := range samples {
		if v <= x {
			n++
		}
	}
	return n
}

func TestQuantileMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3000)
		samples := make([]float64, n)
		for i := range samples {
			// Heavy-tailed with ties, like request latencies.
			samples[i] = float64(int(rng.ExpFloat64()*100)) + float64(rng.Intn(3))
		}
		sorted := slices.Clone(samples)
		slices.Sort(sorted)
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			got := quantile(sorted, q)
			need := int(float64(n)*q + 0.999999999)
			if need < 1 {
				need = 1
			}
			if c := countAtOrBelow(samples, got); c < need {
				t.Fatalf("n=%d q=%v: %v covers %d samples, need %d", n, q, got, c, need)
			}
			// Smallest such sample: anything strictly below covers too few.
			if c := countAtOrBelow(samples, got-1e-9); c >= need {
				t.Fatalf("n=%d q=%v: %v is not the smallest sample covering %d", n, q, got, need)
			}
		}
	}
}

func TestSummarizeOrdersQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = rng.ExpFloat64() * 50
	}
	s, err := summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if !(s.P50 <= s.P99 && s.P99 <= s.Max) || s.N != 5000 {
		t.Fatalf("bad summary %+v", s)
	}
	if _, err := summarize(samples[:999]); err == nil {
		t.Fatal("999 samples cannot support a p99")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}
