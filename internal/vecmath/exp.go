// Four-lane exponential for the hot softmax kernels.
//
// The histogram-materialization loop (ExpShiftedSum) spends nearly all its
// time in math.Exp, and the released values of fixed-seed runs are pinned
// bit-for-bit by golden tests — so a faster exponential is only usable if
// it reproduces math.Exp exactly. On amd64, exp4_amd64.s interleaves four
// lanes of the Go runtime's amd64 exp kernel, in both its plain-SSE and
// FMA variants, restricted to arguments where the kernel has no
// overflow/denormal branches.
//
// At package init each candidate kernel is probed against math.Exp over a
// dense deterministic grid and installed only if it matches bit-for-bit on
// every probe. Off amd64 there are no candidates: math.Exp there follows
// the portable polynomial method (arm64's assembly implements it too),
// which the amd64 kernel does not reproduce bit for bit.
// Wherever no kernel is installed, exp4 stays nil and callers fall back to
// math.Exp — slower, but always exactly the library function.
package vecmath

import "math"

const (
	// expFastLo/Hi bound the arguments the four-lane kernel accepts:
	// comfortably inside the overflow threshold (709.78) and above the
	// region where 2^k leaves the normal range (≈ −709.09), so the
	// kernel needs none of the denormal/overflow branches. NaN fails
	// both comparisons and routes to the fallback.
	expFastLo = -708.0
	expFastHi = 709.0
)

// exp4 evaluates exp on four arguments, each inside (expFastLo, expFastHi),
// bit-identically to math.Exp. It is nil when no verified kernel exists on
// this platform; callers must then use math.Exp.
var exp4 func(x0, x1, x2, x3 float64) (float64, float64, float64, float64)

func init() {
	for _, cand := range expKernelCandidates() {
		if expProbe(cand) {
			exp4 = cand
			break
		}
	}
}

// expProbe reports whether f agrees bit-for-bit with math.Exp on a dense
// deterministic grid over the fast-path domain plus exact and small-
// magnitude probes. A kernel is installed only on a perfect score.
func expProbe(f func(x0, x1, x2, x3 float64) (float64, float64, float64, float64)) bool {
	check := func(x float64) bool {
		got, _, _, _ := f(x, x, x, x)
		return math.Float64bits(got) == math.Float64bits(math.Exp(x))
	}
	// Exact and structurally interesting points.
	for _, x := range []float64{0, 1, -1, math.Ln2, -math.Ln2, 0.5, -0.5,
		expFastLo, expFastHi, -707.999, 708.999, 1e-30, -1e-30, 1e-300, -1e-300} {
		if !check(x) {
			return false
		}
	}
	// Dense grid across the domain (irrational step to avoid hitting only
	// round numbers) and a fine grid across the softmax-typical range.
	for i := 0; i < 8192; i++ {
		if !check(expFastLo + (expFastHi-expFastLo)*float64(i)/8191.0*0.9999) {
			return false
		}
	}
	for i := 0; i < 8192; i++ {
		if !check(-50 * float64(i) / 8191.0) {
			return false
		}
	}
	return true
}
