package signalproc

import (
	"math"
	"sync"
)

// A plan is everything needed to transform one length that does not depend
// on the data: the factorisation, the twiddle tables and, for the Bluestein
// fallback, the chirp and its transformed filter. Plans are immutable once
// built and shared by concurrent callers through planFor and realPlanFor.
//
// A plan takes exactly one of three forms:
//   - mixed radix: n = product of radices, each 2, 3, 4 or 5, transformed by
//     self-sorting (Stockham) stages over twiddle[j] = exp(-2πi·j/n);
//   - Bluestein: any other n, evaluated as a circular convolution of length
//     m ≥ 2n-1 (a power of two) run on conv;
//   - real: a real series of even length n, transformed as the complex series
//     of its n/2 (even, odd) sample pairs on half and then unpacked with
//     twiddle[k] = exp(-2πi·k/n), k ≤ n/4.
type plan struct {
	n int

	radices []int
	twiddle []complex128

	conv   *plan
	chirp  []complex128 // exp(-iπ·k²/n), k < n
	filter []complex128 // FFT_m of the wrapped conjugate chirp, scaled by 1/m

	half *plan
}

// maxPlans bounds the plan cache. A refilling telemetry ring asks for a new
// length on every sample, so an unbounded cache would grow without limit. The
// steady state needs a handful (a month, its half, a Bluestein length and its
// convolution length), and a miss only rebuilds the twiddles, or Bluestein's
// chirp and one transform of its filter.
const maxPlans = 16

type planKey struct {
	n    int
	real bool
}

type cachedPlan struct {
	p    *plan
	used uint64
}

// planCache is a bounded, least-recently-used cache of plans. Lookups take a
// mutex for a few nanoseconds; plans are built outside it, so two callers may
// race to build the same plan and the first one inserted wins.
type planCache struct {
	mu      sync.Mutex
	tick    uint64
	entries map[planKey]cachedPlan
}

var plans = planCache{entries: make(map[planKey]cachedPlan, maxPlans)}

// planFor returns the complex-transform plan for length n.
func planFor(n int) *plan { return plans.get(planKey{n: n}) }

// realPlanFor returns the real-input plan for an even length n.
func realPlanFor(n int) *plan { return plans.get(planKey{n: n, real: true}) }

func (c *planCache) lookup(k planKey) *plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return nil
	}
	c.tick++
	e.used = c.tick
	c.entries[k] = e
	return e.p
}

func (c *planCache) get(k planKey) *plan {
	if p := c.lookup(k); p != nil {
		return p
	}
	var p *plan
	if k.real {
		p = newRealPlan(k.n)
	} else {
		p = newPlan(k.n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if e, ok := c.entries[k]; ok {
		e.used = c.tick
		c.entries[k] = e
		return e.p
	}
	if len(c.entries) >= maxPlans {
		var oldest planKey
		least := c.tick
		for key, e := range c.entries {
			if e.used < least {
				oldest, least = key, e.used
			}
		}
		delete(c.entries, oldest)
	}
	c.entries[k] = cachedPlan{p: p, used: c.tick}
	return p
}

// len reports how many plans the cache holds.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// newPlan builds the plan for a complex transform of length n ≥ 1.
func newPlan(n int) *plan {
	if radices, ok := factor(n); ok {
		return &plan{n: n, radices: radices, twiddle: unitRoots(n, n)}
	}
	// Bluestein: the DFT as a convolution with the chirp exp(iπ·k²/n).
	m := nextPowerOfTwo(2*n - 1)
	p := &plan{n: n, conv: planFor(m), chirp: make([]complex128, n)}
	for k := range p.chirp {
		// k² mod 2n keeps the angle exact for large k.
		kk := int64(k) * int64(k) % int64(2*n)
		sin, cos := math.Sincos(math.Pi * float64(kk) / float64(n))
		p.chirp[k] = complex(cos, -sin)
	}
	b := make([]complex128, m)
	inv := 1 / float64(m)
	b[0] = complex(inv, 0)
	for k := 1; k < n; k++ {
		c := p.chirp[k]
		b[k] = complex(real(c)*inv, -imag(c)*inv)
		b[m-k] = b[k]
	}
	p.filter = make([]complex128, m)
	p.conv.forward(p.filter, b, nil)
	return p
}

// newRealPlan builds the plan for a real-input transform of even length n.
func newRealPlan(n int) *plan {
	return &plan{n: n, half: planFor(n / 2), twiddle: unitRoots(n, n/4+1)}
}

// factor splits n into radix-4, 2, 3 and 5 stages. It reports false when n
// has any other prime factor.
func factor(n int) ([]int, bool) {
	var radices []int
	for n%4 == 0 {
		radices = append(radices, 4)
		n /= 4
	}
	for _, r := range []int{2, 3, 5} {
		for n%r == 0 {
			radices = append(radices, r)
			n /= r
		}
	}
	return radices, n == 1
}

// unitRoots returns exp(-2πi·j/n) for j < count.
func unitRoots(n, count int) []complex128 {
	w := make([]complex128, count)
	for j := range w {
		sin, cos := math.Sincos(2 * math.Pi * float64(j) / float64(n))
		w[j] = complex(cos, -sin)
	}
	return w
}

func isPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// nextPowerOfTwo returns the smallest power of two >= n.
func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// scratchLen is the work buffer forward needs.
func (p *plan) scratchLen() int {
	if p.conv != nil {
		return 2 * p.conv.n
	}
	return p.n
}

// forward writes the forward DFT of src into dst (both of length p.n). src
// may alias dst. work is scratch; when it is shorter than p.scratchLen(),
// forward allocates its own.
func (p *plan) forward(dst, src, work []complex128) {
	if len(work) < p.scratchLen() {
		work = make([]complex128, p.scratchLen())
	}
	if p.conv != nil {
		p.bluestein(dst, src, work)
		return
	}
	if len(p.radices) == 0 {
		copy(dst, src)
		return
	}
	// Stages ping-pong between dst and work; start so the last lands in dst.
	out, spare := dst, work[:p.n]
	if len(p.radices)%2 == 0 {
		out, spare = spare, out
	}
	if &src[0] == &out[0] {
		copy(spare, src)
		src = spare
	}
	s := 1
	for _, r := range p.radices {
		m := p.n / (s * r)
		switch r {
		case 4:
			stage4(out, src, p.twiddle, s, m)
		case 2:
			stage2(out, src, p.twiddle, s, m)
		case 3:
			stage3(out, src, p.twiddle, s, m)
		case 5:
			stage5(out, src, p.twiddle, s, m)
		}
		src, out, spare = out, spare, out
		s *= r
	}
}

// bluestein evaluates the DFT as the circular convolution of x·chirp with
// the conjugate chirp. The inverse transform of the convolution is a forward
// transform of the conjugate, so conv only ever runs forward.
func (p *plan) bluestein(dst, src, work []complex128) {
	m := p.conv.n
	a, w := work[:m], work[m:2*m]
	for k, c := range p.chirp {
		a[k] = src[k] * c
	}
	clear(a[p.n:])
	p.conv.forward(a, a, w)
	for i, f := range p.filter {
		v := a[i] * f
		a[i] = complex(real(v), -imag(v))
	}
	p.conv.forward(a, a, w)
	for k, c := range p.chirp {
		v := a[k]
		dst[k] = complex(real(v), -imag(v)) * c
	}
}

// The stages below are one self-sorting decimation-in-frequency pass each.
// A pass of radix r over s interleaved sub-transforms of length r·m reads
// src[q + s·(p + j·m)] and writes the r-point DFT's output k, times the
// twiddle exp(-2πi·p·k/(r·m)) = twiddle[s·p·k], to dst[q + s·(r·p + k)].

func stage2(dst, src, tw []complex128, s, m int) {
	sm := s * m
	src = src[:2*sm]
	dst = dst[:2*sm]
	for p := 0; p < m; p++ {
		w1 := tw[s*p]
		for i, o := s*p, 2*s*p; i < s*p+s; i, o = i+1, o+1 {
			a0, a1 := src[i], src[i+sm]
			dst[o] = a0 + a1
			dst[o+s] = (a0 - a1) * w1
		}
	}
}

func stage4(dst, src, tw []complex128, s, m int) {
	sm := s * m
	src = src[:4*sm]
	dst = dst[:4*sm]
	for p := 0; p < m; p++ {
		w1, w2, w3 := tw[s*p], tw[2*s*p], tw[3*s*p]
		for i, o := s*p, 4*s*p; i < s*p+s; i, o = i+1, o+1 {
			a0, a1, a2, a3 := src[i], src[i+sm], src[i+2*sm], src[i+3*sm]
			t0, t1 := a0+a2, a0-a2
			t2, t3 := a1+a3, mulNegI(a1-a3)
			dst[o] = t0 + t2
			dst[o+s] = (t1 + t3) * w1
			dst[o+2*s] = (t0 - t2) * w2
			dst[o+3*s] = (t1 - t3) * w3
		}
	}
}

func stage3(dst, src, tw []complex128, s, m int) {
	const sin60 = 0.86602540378443864676372317075293618 // sin(2π/3)
	sm := s * m
	src = src[:3*sm]
	dst = dst[:3*sm]
	for p := 0; p < m; p++ {
		w1, w2 := tw[s*p], tw[2*s*p]
		for i, o := s*p, 3*s*p; i < s*p+s; i, o = i+1, o+1 {
			a0, a1, a2 := src[i], src[i+sm], src[i+2*sm]
			sum, diff := a1+a2, a1-a2
			mid := a0 - scale(0.5, sum)
			rot := mulNegI(scale(sin60, diff))
			dst[o] = a0 + sum
			dst[o+s] = (mid + rot) * w1
			dst[o+2*s] = (mid - rot) * w2
		}
	}
}

func stage5(dst, src, tw []complex128, s, m int) {
	const (
		c1 = 0.30901699437494742410229341718281906  // cos(2π/5)
		c2 = -0.80901699437494742410229341718281906 // cos(4π/5)
		s1 = 0.95105651629515357211643933337938214  // sin(2π/5)
		s2 = 0.58778525229247312916870595463907277  // sin(4π/5)
	)
	sm := s * m
	src = src[:5*sm]
	dst = dst[:5*sm]
	for p := 0; p < m; p++ {
		w1, w2, w3, w4 := tw[s*p], tw[2*s*p], tw[3*s*p], tw[4*s*p]
		for i, o := s*p, 5*s*p; i < s*p+s; i, o = i+1, o+1 {
			a0, a1, a2, a3, a4 := src[i], src[i+sm], src[i+2*sm], src[i+3*sm], src[i+4*sm]
			s14, d14 := a1+a4, a1-a4
			s23, d23 := a2+a3, a2-a3
			t1 := a0 + scale(c1, s14) + scale(c2, s23)
			t2 := a0 + scale(c2, s14) + scale(c1, s23)
			u1 := mulNegI(scale(s1, d14) + scale(s2, d23))
			u2 := mulNegI(scale(s2, d14) - scale(s1, d23))
			dst[o] = a0 + s14 + s23
			dst[o+s] = (t1 + u1) * w1
			dst[o+2*s] = (t2 + u2) * w2
			dst[o+3*s] = (t2 - u2) * w3
			dst[o+4*s] = (t1 - u1) * w4
		}
	}
}

// scale multiplies z by a real factor without a full complex product.
func scale(c float64, z complex128) complex128 { return complex(c*real(z), c*imag(z)) }

// mulNegI returns -i·z.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }
