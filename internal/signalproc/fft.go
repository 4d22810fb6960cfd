// Package signalproc implements the signal-processing pipeline the paper uses
// to understand primary tenant utilization: a Fast Fourier Transform, power
// spectra, and the classification of one-month utilization traces into
// periodic, constant, and unpredictable patterns (§3.2).
package signalproc

import (
	"errors"
	"fmt"
	"math/cmplx"
)

// ErrEmptyInput is returned when a transform is requested on an empty series.
var ErrEmptyInput = errors.New("signalproc: empty input")

// FFT computes the discrete Fourier transform of x. Lengths whose prime
// factors are 2, 3 and 5 (a one-month trace is 21600 = 2^5·3^3·5^2
// two-minute slots) run a planned mixed-radix transform; any other length
// uses Bluestein's chirp-z transform, so arbitrary trace lengths are
// supported without padding artefacts.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmptyInput
	}
	out := make([]complex128, n)
	planFor(n).forward(out, x, nil)
	return out, nil
}

// IFFT computes the inverse discrete Fourier transform of x, normalized by
// 1/N so that IFFT(FFT(x)) == x. It runs the forward transform on the
// conjugate: IDFT(x) = conj(DFT(conj(x)))/N.
func IFFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmptyInput
	}
	out := make([]complex128, n)
	for i, v := range x {
		out[i] = cmplx.Conj(v)
	}
	planFor(n).forward(out, out, nil)
	inv := 1 / float64(n)
	for i, v := range out {
		out[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return out, nil
}

// FFTReal transforms a real-valued series and returns the complex spectrum.
//
// An even-length series is transformed as the complex series z of its h =
// n/2 sample pairs (x[2j], x[2j+1]), whose spectrum Z holds both halves: with
// E and O the spectra of the even and odd samples, E[k] = (Z[k] +
// conj(Z[h-k]))/2, O[k] = (Z[k] - conj(Z[h-k]))/2i and X[k] = E[k] +
// exp(-2πi·k/n)·O[k]. A one-month trace thus costs one 10800-point transform.
func FFTReal(x []float64) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmptyInput
	}
	out := make([]complex128, n)
	if n%2 == 1 {
		for i, v := range x {
			out[i] = complex(v, 0)
		}
		planFor(n).forward(out, out, nil)
		return out, nil
	}
	p := realPlanFor(n)
	h := n / 2
	z := out[:h]
	for j := range z {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	p.half.forward(z, z, out[h:])
	z0 := z[0]
	out[0] = complex(real(z0)+imag(z0), 0)
	out[h] = complex(real(z0)-imag(z0), 0)
	// Bins k and h-k share their inputs, so each pair is unpacked in place:
	// with w = exp(-2πi·k/n), X[k] = E + w·O and X[h-k] = conj(E - w·O).
	for k := 1; 2*k <= h; k++ {
		zk, zc := z[k], cmplx.Conj(z[h-k])
		e := scale(0.5, zk+zc)
		o := p.twiddle[k] * scale(0.5, mulNegI(zk-zc))
		out[k] = e + o
		out[h-k] = cmplx.Conj(e - o)
	}
	// The upper half mirrors the lower: X[n-k] = conj(X[k]).
	for k := 1; k < h; k++ {
		out[n-k] = cmplx.Conj(out[k])
	}
	return out, nil
}

// PowerSpectrum returns the magnitude of each frequency bin of the real
// series x, excluding the DC component (bin 0) and covering bins 1..N/2.
// Bin k corresponds to a signal that repeats k times over the series length —
// for a one-month trace, bin 31 is the daily cycle the paper highlights in
// Figure 1b.
func PowerSpectrum(x []float64) ([]float64, error) {
	spectrum, err := FFTReal(x)
	if err != nil {
		return nil, err
	}
	half := len(x) / 2
	if half < 1 {
		return nil, fmt.Errorf("signalproc: series of length %d has no non-DC bins", len(x))
	}
	out := make([]float64, half)
	for k := 1; k <= half; k++ {
		out[k-1] = cmplx.Abs(spectrum[k])
	}
	return out, nil
}
