package vecmath

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestExp4BitIdentical drives the installed four-lane kernel over random
// and adversarial arguments and requires bit equality with math.Exp on
// every one — the contract that lets ExpShiftedSum keep golden outputs
// unchanged. On amd64 a kernel must be installed.
func TestExp4BitIdentical(t *testing.T) {
	if exp4 == nil {
		if runtime.GOARCH == "amd64" {
			t.Fatal("no exp kernel passed the init probe on amd64")
		}
		t.Skip("no exp kernel off amd64; math.Exp fallback in use")
	}
	check := func(x float64) {
		t.Helper()
		got, g1, g2, g3 := exp4(x, x, x, x)
		want := math.Exp(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("exp4(%x) = %x, math.Exp = %x", x, got, want)
		}
		if got != g1 || got != g2 || got != g3 {
			t.Fatalf("exp4(%v): lanes disagree: %v %v %v %v", x, got, g1, g2, g3)
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, 2, -2, math.Ln2, -math.Ln2,
		0.5 * math.Ln2, -0.5 * math.Ln2, 1.5 * math.Ln2, -1.5 * math.Ln2,
		1e-30, -1e-30, 1e-308, -1e-308, 4.9e-324, -4.9e-324,
		expFastLo, expFastHi, math.Nextafter(expFastLo, 0), math.Nextafter(expFastHi, 0),
		-700, 700, -707.99, 708.99, 1.0 / 3, -1.0 / 3, math.Pi, -math.Pi,
	} {
		check(x)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2_000_000; i++ {
		// Mix of softmax-typical, full-domain, and tiny magnitudes.
		var x float64
		switch i % 3 {
		case 0:
			x = -50 * rng.Float64()
		case 1:
			x = expFastLo + (expFastHi-expFastLo)*rng.Float64()
		default:
			x = math.Ldexp(rng.Float64()*2-1, -rng.Intn(1000))
		}
		check(x)
	}
}

// TestExpShiftedSumMatchesReference compares the blocked kernel with a
// plain math.Exp reference loop bit-for-bit, including out-of-domain lanes
// (deep underflow, overflow, ±Inf, NaN) that force the per-block fallback.
func TestExpShiftedSumMatchesReference(t *testing.T) {
	ref := func(dst, a []float64, shift float64) float64 {
		var s float64
		for i, v := range a {
			e := math.Exp(v - shift)
			dst[i] = e
			s += e
		}
		return s
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 255, 1024, 4097} {
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
		}
		if n > 16 {
			// Poison some entries so whole blocks fall back.
			a[1] = -1e9
			a[5] = 800
			a[9] = math.Inf(-1)
			a[13] = math.NaN()
		}
		for _, shift := range []float64{0, -3.5, 12.25} {
			got := make([]float64, n)
			want := make([]float64, n)
			gs := ExpShiftedSum(got, a, shift)
			ws := ref(want, a, shift)
			if math.Float64bits(gs) != math.Float64bits(ws) && !(math.IsNaN(gs) && math.IsNaN(ws)) {
				t.Fatalf("n=%d shift=%v: sum %x, want %x", n, shift, gs, ws)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("n=%d shift=%v dst[%d] = %x, want %x", n, shift, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAddScaledMaxMatchesReference compares the four-accumulator kernel
// with the sequential reference on random data, tail lengths, and NaN/−Inf
// edge cases.
func TestAddScaledMaxMatchesReference(t *testing.T) {
	ref := func(dst []float64, c float64, a []float64) float64 {
		m := math.Inf(-1)
		for i := range dst {
			dst[i] += c * a[i]
			if dst[i] > m {
				m = dst[i]
			}
		}
		return m
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 3, 4, 6, 8, 100, 1023, 1024, 1025} {
		base := make([]float64, n)
		a := make([]float64, n)
		for i := range a {
			base[i] = rng.NormFloat64()
			a[i] = rng.NormFloat64()
		}
		if n >= 8 {
			a[2] = math.NaN()
			base[7] = math.Inf(-1)
		}
		for _, c := range []float64{0, -0.37, 2.5} {
			got := append([]float64(nil), base...)
			want := append([]float64(nil), base...)
			gm := AddScaledMax(got, c, a)
			wm := ref(want, c, a)
			if math.Float64bits(gm) != math.Float64bits(wm) && !(math.IsNaN(gm) && math.IsNaN(wm)) {
				t.Fatalf("n=%d c=%v: max %x, want %x", n, c, gm, wm)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("n=%d c=%v dst[%d] = %x, want %x", n, c, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDotMatchesReference pins the unrolled Dot to the sequential
// index-order accumulation bit-for-bit.
func TestDotMatchesReference(t *testing.T) {
	ref := func(a, b []float64) float64 {
		var s float64
		for i, ai := range a {
			s += ai * b[i]
		}
		return s
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 9, 1000} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 100
			b[i] = rng.NormFloat64()
		}
		got, want := Dot(a, b), ref(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Dot = %x, want %x", n, got, want)
		}
	}
}

// TestSoftmaxMatchesReference pins the fused Softmax to the original
// exp/accumulate/divide formulation bit-for-bit.
func TestSoftmaxMatchesReference(t *testing.T) {
	ref := func(dst, a []float64) []float64 {
		if len(a) == 0 {
			return dst
		}
		m, _ := Max(a)
		var z float64
		for i, v := range a {
			e := math.Exp(v - m)
			dst[i] = e
			z += e
		}
		for i := range dst {
			dst[i] /= z
		}
		return dst
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3, 4, 7, 64, 1000} {
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 5
		}
		got := Softmax(nil, a)
		want := ref(make([]float64, n), a)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d dst[%d] = %x, want %x", n, i, got[i], want[i])
			}
		}
	}
}
