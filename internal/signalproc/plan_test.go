package signalproc

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// lengthClasses covers every path through the planner: pure radix-4/2,
// mixed radix with real packing, odd mixed radix, Bluestein on a prime, and
// Bluestein under real packing (2·4099 packs onto a prime half length).
var lengthClasses = []struct {
	name    string
	lengths []int
}{
	{"pow2", []int{2, 8, 64, 4096, 65536}},
	{"even_smooth", []int{720, 1440, 10080, 21600}},
	{"odd_smooth", []int{45, 675}},
	{"prime", []int{7, 4099}},
	{"large_prime_factor", []int{2 * 4099, 2 * 7 * 11}},
}

// referenceBins evaluates the DFT of x at the given bins directly, in O(n)
// per bin, with exp(∓2πi·j/n) tabulated and the exponent k·t reduced mod n
// exactly. sign is -1 for the forward transform and +1 for the inverse
// (which is also scaled by 1/n).
func referenceBins(x []complex128, bins []int, sign float64) []complex128 {
	n := len(x)
	roots := make([]complex128, n)
	for j := range roots {
		roots[j] = cmplx.Exp(complex(0, sign*2*math.Pi*float64(j)/float64(n)))
	}
	out := make([]complex128, len(bins))
	for i, k := range bins {
		var sum complex128
		for t, v := range x {
			sum += v * roots[(k*t)%n]
		}
		if sign > 0 {
			sum /= complex(float64(n), 0)
		}
		out[i] = sum
	}
	return out
}

// checkBins picks the bins to compare: all of them for short lengths, and
// both ends of the spectrum plus a random sample for long ones, so the O(n)
// reference stays cheap.
func checkBins(rng *rand.Rand, n int) []int {
	if n <= 2048 {
		bins := make([]int, n)
		for k := range bins {
			bins[k] = k
		}
		return bins
	}
	var bins []int
	for k := 0; k < 32; k++ {
		bins = append(bins, k, n-1-k)
	}
	for i := 0; i < 64; i++ {
		bins = append(bins, rng.Intn(n))
	}
	return bins
}

// assertBins fails unless got matches want at every bin to within 1e-9 of
// the reference's peak magnitude.
func assertBins(t *testing.T, what string, got []complex128, bins []int, want []complex128) {
	t.Helper()
	peak := 0.0
	for _, w := range want {
		peak = math.Max(peak, cmplx.Abs(w))
	}
	for i, k := range bins {
		if d := cmplx.Abs(got[k] - want[i]); d > 1e-9*peak {
			t.Fatalf("%s bin %d: got %v, want %v (|err| %.3g, peak %.3g)", what, k, got[k], want[i], d, peak)
		}
	}
}

func TestFFTMatchesReferenceByLengthClass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, class := range lengthClasses {
		for _, n := range class.lengths {
			t.Run(fmt.Sprintf("%s/%d", class.name, n), func(t *testing.T) {
				x := randomComplex(rng, n)
				bins := checkBins(rng, n)
				fwd, err := FFT(x)
				if err != nil {
					t.Fatal(err)
				}
				assertBins(t, "FFT", fwd, bins, referenceBins(x, bins, -1))
				inv, err := IFFT(x)
				if err != nil {
					t.Fatal(err)
				}
				assertBins(t, "IFFT", inv, bins, referenceBins(x, bins, 1))
			})
		}
	}
}

func TestFFTRealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, class := range lengthClasses {
		for _, n := range class.lengths {
			x := make([]float64, n)
			cx := make([]complex128, n)
			for i := range x {
				x[i] = rng.NormFloat64()
				cx[i] = complex(x[i], 0)
			}
			got, err := FFTReal(x)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("n=%d: FFTReal returned %d bins", n, len(got))
			}
			bins := checkBins(rng, n)
			assertBins(t, fmt.Sprintf("FFTReal n=%d", n), got, bins, referenceBins(cx, bins, -1))
		}
	}
}

func TestPowerSpectrumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 3, 45, 675, 720, 4099, 2 * 4099, 21599, 21600} {
		x := monthTrace(n)
		got, err := PowerSpectrum(x)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n/2 {
			t.Fatalf("n=%d: %d bins, want %d", n, len(got), n/2)
		}
		cx := make([]complex128, n)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		var bins []int
		for _, k := range checkBins(rng, n) {
			if k >= 1 && k <= n/2 {
				bins = append(bins, k)
			}
		}
		want := referenceBins(cx, bins, -1)
		peak := 0.0
		for _, w := range want {
			peak = math.Max(peak, cmplx.Abs(w))
		}
		for i, k := range bins {
			if d := math.Abs(got[k-1] - cmplx.Abs(want[i])); d > 1e-9*peak {
				t.Fatalf("n=%d bin %d: got %v, want %v", n, k, got[k-1], cmplx.Abs(want[i]))
			}
		}
	}
}

// TestPlanCacheBounded drives PowerSpectrum over the lengths a refilling
// telemetry ring produces — one more sample each time — and requires the
// plan cache to stay within its bound throughout.
func TestPlanCacheBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := monthTrace(1100)
	for n := 500; n < 1100; n++ {
		if _, err := PowerSpectrum(x[:n]); err != nil {
			t.Fatal(err)
		}
		if got := plans.len(); got > maxPlans {
			t.Fatalf("after length %d the plan cache holds %d plans, bound %d", n, got, maxPlans)
		}
	}
	// Evicted lengths are rebuilt and still transform correctly.
	for _, n := range []int{500, 501, 720} {
		cx := make([]complex128, n)
		for i, v := range x[:n] {
			cx[i] = complex(v, 0)
		}
		got, err := FFT(cx)
		if err != nil {
			t.Fatal(err)
		}
		bins := checkBins(rng, n)
		assertBins(t, fmt.Sprintf("rebuilt n=%d", n), got, bins, referenceBins(cx, bins, -1))
	}
}

// TestPowerSpectrumConcurrent runs PowerSpectrum on mixed lengths from many
// goroutines while others churn the cache with fresh lengths, so plans are
// built, shared and evicted concurrently. Every result must equal the
// serial one bit for bit.
func TestPowerSpectrumConcurrent(t *testing.T) {
	lengths := []int{2160, 2159, 720, 675, 154, 4099, 2 * 4099, 45}
	want := make(map[int][]float64, len(lengths))
	for _, n := range lengths {
		s, err := PowerSpectrum(monthTrace(n))
		if err != nil {
			t.Fatal(err)
		}
		want[n] = s
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range lengths {
					n := lengths[(i+w)%len(lengths)]
					got, err := PowerSpectrum(monthTrace(n))
					if err != nil {
						errs <- err
						return
					}
					for k := range got {
						if got[k] != want[n][k] {
							errs <- fmt.Errorf("n=%d bin %d: concurrent %v, serial %v", n, k+1, got[k], want[n][k])
							return
						}
					}
					// Churn: a length no other worker asks for.
					if _, err := PowerSpectrum(monthTrace(300 + 40*w + 10*round + i)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := plans.len(); got > maxPlans {
		t.Fatalf("plan cache holds %d plans, bound %d", got, maxPlans)
	}
}

// TestPowerSpectrumAllocs gates the month-length spectrum at three
// allocations: the packed transform buffer, the magnitudes, and slack for
// one more. Plans are cached, so nothing else may allocate per call.
func TestPowerSpectrumAllocs(t *testing.T) {
	x := monthTrace(21600)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := PowerSpectrum(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("PowerSpectrum(21600 samples) = %.0f allocs/op, want <= 3", allocs)
	}
}
