package signalproc

import (
	"math"
	"math/rand"
	"testing"
)

// monthTrace is a one-month utilization series at 2-minute slots shaped like
// the traces the classifier sees: a daily cycle plus noise.
func monthTrace(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.4 + 0.2*math.Sin(2*math.Pi*30*float64(i)/float64(n)) + 0.05*rng.Float64()
	}
	return x
}

// BenchmarkPowerSpectrum times one classification spectrum. 21600 is a
// one-month trace at 2-minute slots (2^5·3^3·5^2, the mixed-radix path);
// 21599 is prime and takes the Bluestein path.
func BenchmarkPowerSpectrum(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"month_21600", 21600}, {"prime_21599", 21599}} {
		b.Run(bc.name, func(b *testing.B) {
			x := monthTrace(bc.n)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := PowerSpectrum(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
