// Package vecmath provides small dense-vector numeric helpers used across
// the library: inner products, norms, in-place arithmetic, and numerically
// careful reductions (log-sum-exp, Kahan summation).
//
// All functions treat a vector as a []float64 and panic on length mismatch:
// a mismatch is always a programmer error, never a data-dependent condition.
package vecmath

import (
	"fmt"
	"math"
)

// checkLen panics if two vectors that must be conformant are not.
func checkLen(op string, a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: %s: length mismatch %d != %d", op, len(a), len(b)))
	}
}

// Dot returns the inner product ⟨a, b⟩, accumulated in index order (the
// result is bit-reproducible, so the unroll below must not reassociate the
// sum — only the four products per block compute independently).
func Dot(a, b []float64) float64 {
	checkLen("Dot", a, b)
	var s float64
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		m0 := a[i] * b[i]
		m1 := a[i+1] * b[i+1]
		m2 := a[i+2] * b[i+2]
		m3 := a[i+3] * b[i+3]
		s += m0
		s += m1
		s += m2
		s += m3
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm ‖a‖₂, guarding against overflow by
// scaling with the largest absolute entry.
func Norm2(a []float64) float64 {
	var maxAbs float64
	for _, v := range a {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for _, v := range a {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// Dist2 returns ‖a − b‖₂.
func Dist2(a, b []float64) float64 {
	checkLen("Dist2", a, b)
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Dist1 returns ‖a − b‖₁.
func Dist1(a, b []float64) float64 {
	checkLen("Dist1", a, b)
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Sub returns a new vector a − b.
func Sub(a, b []float64) []float64 {
	checkLen("Sub", a, b)
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Scale returns a new vector c·a.
func Scale(c float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = c * v
	}
	return out
}

// AddScaled sets dst = dst + c·a in place and returns dst.
func AddScaled(dst []float64, c float64, a []float64) []float64 {
	checkLen("AddScaled", dst, a)
	for i := range dst {
		dst[i] += c * a[i]
	}
	return dst
}

// Copy returns a fresh copy of a.
func Copy(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Zeros returns a zero vector of length n.
func Zeros(n int) []float64 { return make([]float64, n) }

// Sum returns the Kahan-compensated sum of a. Compensated summation matters
// for histograms over large universes, where naive accumulation of ~|X|
// small probabilities loses relative precision.
func Sum(a []float64) float64 {
	var sum, comp float64
	for _, v := range a {
		y := v - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Max returns the maximum entry and its index. It panics on an empty slice.
func Max(a []float64) (float64, int) {
	if len(a) == 0 {
		panic("vecmath: Max of empty slice")
	}
	best, idx := a[0], 0
	for i, v := range a[1:] {
		if v > best {
			best, idx = v, i+1
		}
	}
	return best, idx
}

// Clamp returns v restricted to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Softmax writes exp(aᵢ)/Σ exp(aⱼ) into dst (allocating when dst is nil)
// and returns it. Computation is shifted by the max for stability.
func Softmax(dst, a []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(a))
	}
	checkLen("Softmax", dst, a)
	if len(a) == 0 {
		return dst
	}
	m, _ := Max(a)
	z := ExpShiftedSum(dst, a, m)
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] /= z
		dst[i+1] /= z
		dst[i+2] /= z
		dst[i+3] /= z
	}
	for ; i < n; i++ {
		dst[i] /= z
	}
	return dst
}

// ScaleInPlace multiplies every entry of a by c and returns a.
func ScaleInPlace(a []float64, c float64) []float64 {
	for i := range a {
		a[i] *= c
	}
	return a
}

// ExpShiftedSum writes exp(aᵢ − shift) into dst and returns the sum of the
// written entries. It is the fused exp half of a softmax: callers compute
// shift = max(a) for stability, then normalize dst by the returned total.
// Fusing the exponential with its accumulation keeps the multiplicative-
// weights histogram materialization a single pass per chunk.
// The block loop runs four inlined exp lanes (exp.go) per iteration when a
// verified bit-identical kernel is installed; the sum stays in index order
// so the result is unchanged down to the last bit. Blocks containing an
// argument outside the kernel's domain (deep underflow, overflow, NaN) and
// the scalar tail use math.Exp directly.
func ExpShiftedSum(dst, a []float64, shift float64) float64 {
	checkLen("ExpShiftedSum", dst, a)
	var s float64
	n := len(a)
	dst = dst[:n]
	i := 0
	if exp4 != nil {
		for ; i+4 <= n; i += 4 {
			x0 := a[i] - shift
			x1 := a[i+1] - shift
			x2 := a[i+2] - shift
			x3 := a[i+3] - shift
			if x0 > expFastLo && x0 < expFastHi &&
				x1 > expFastLo && x1 < expFastHi &&
				x2 > expFastLo && x2 < expFastHi &&
				x3 > expFastLo && x3 < expFastHi {
				e0, e1, e2, e3 := exp4(x0, x1, x2, x3)
				dst[i], dst[i+1], dst[i+2], dst[i+3] = e0, e1, e2, e3
				s += e0
				s += e1
				s += e2
				s += e3
				continue
			}
			e0 := math.Exp(x0)
			e1 := math.Exp(x1)
			e2 := math.Exp(x2)
			e3 := math.Exp(x3)
			dst[i], dst[i+1], dst[i+2], dst[i+3] = e0, e1, e2, e3
			s += e0
			s += e1
			s += e2
			s += e3
		}
	}
	for ; i < n; i++ {
		e := math.Exp(a[i] - shift)
		dst[i] = e
		s += e
	}
	return s
}

// AddScaledMax sets dst = dst + c·a in place and returns the maximum of
// the updated entries (−Inf for an empty slice). It is the fused
// multiplicative-weights update kernel: one pass applies the log-space
// step and computes the re-centering shift the next softmax needs.
// The four lanes keep independent running maxima (max is order-free under
// the same strict-> comparison, so the blocked reduction returns the same
// value as a sequential scan), removing the serial compare chain from the
// hot loop.
func AddScaledMax(dst []float64, c float64, a []float64) float64 {
	checkLen("AddScaledMax", dst, a)
	n := len(dst)
	a = a[:n]
	m0 := math.Inf(-1)
	m1, m2, m3 := m0, m0, m0
	i := 0
	for ; i+4 <= n; i += 4 {
		v0 := dst[i] + c*a[i]
		v1 := dst[i+1] + c*a[i+1]
		v2 := dst[i+2] + c*a[i+2]
		v3 := dst[i+3] + c*a[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = v0, v1, v2, v3
		if v0 > m0 {
			m0 = v0
		}
		if v1 > m1 {
			m1 = v1
		}
		if v2 > m2 {
			m2 = v2
		}
		if v3 > m3 {
			m3 = v3
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	for ; i < n; i++ {
		dst[i] += c * a[i]
		if dst[i] > m0 {
			m0 = dst[i]
		}
	}
	return m0
}

// AddConst adds c to every entry of a and returns a.
func AddConst(a []float64, c float64) []float64 {
	for i := range a {
		a[i] += c
	}
	return a
}

// ProjectL2Ball returns the Euclidean projection of a onto the ball
// {θ : ‖θ‖₂ ≤ r}. For r ≤ 0 it returns the origin.
func ProjectL2Ball(a []float64, r float64) []float64 {
	if r <= 0 {
		return Zeros(len(a))
	}
	n := Norm2(a)
	if n <= r {
		return Copy(a)
	}
	return Scale(r/n, a)
}

// ApproxEqual reports whether |a−b| ≤ tol elementwise.
func ApproxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
