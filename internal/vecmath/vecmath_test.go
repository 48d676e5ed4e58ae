package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if got := Norm2(v); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Naive sum-of-squares overflows; scaled computation must not.
	v := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Norm2(v); math.IsInf(got, 0) || !almostEq(got/want, 1, 1e-12) {
		t.Fatalf("Norm2 overflow-guard failed: got %v want %v", got, want)
	}
}

func TestDistances(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{4, 6}
	if got := Dist2(a, b); !almostEq(got, 5, 1e-12) {
		t.Errorf("Dist2 = %v, want 5", got)
	}
	if got := Dist1(a, b); got != 7 {
		t.Errorf("Dist1 = %v, want 7", got)
	}
}

func TestArithmetic(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := Sub(b, a); !ApproxEqual(got, []float64{2, 3}, 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(2, a); !ApproxEqual(got, []float64{2, 4}, 0) {
		t.Errorf("Scale = %v", got)
	}
	dst := Copy(a)
	AddScaled(dst, 10, b)
	if !ApproxEqual(dst, []float64{31, 52}, 0) {
		t.Errorf("AddScaled = %v", dst)
	}
}

func TestSumKahan(t *testing.T) {
	// 1 followed by 1e8 copies of 1e-8 sums to 2 with compensation.
	n := 100000
	v := make([]float64, n+1)
	v[0] = 1
	for i := 1; i <= n; i++ {
		v[i] = 1e-5
	}
	if got := Sum(v); !almostEq(got, 2, 1e-9) {
		t.Fatalf("Sum = %v, want 2", got)
	}
}

func TestMeanMaxMin(t *testing.T) {
	v := []float64{2, -1, 5, 3}
	if m, i := Max(v); m != 5 || i != 2 {
		t.Errorf("Max = %v,%d", m, i)
	}
}

func TestMaxFirstOfTies(t *testing.T) {
	if _, i := Max([]float64{1, 3, 3}); i != 1 {
		t.Errorf("Max tie index = %d, want first occurrence 1", i)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 1, 1}, {-5, 0, 1, 0}, {0.5, 0, 1, 0.5},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	v := []float64{math.Log(1), math.Log(2), math.Log(3)}
	if got := LogSumExp(v); !almostEq(got, math.Log(6), 1e-12) {
		t.Errorf("LogSumExp = %v, want log 6", got)
	}
	// Large shifts must not overflow.
	v = []float64{1000, 1000}
	if got := LogSumExp(v); !almostEq(got, 1000+math.Log(2), 1e-9) {
		t.Errorf("LogSumExp big = %v", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %v, want -Inf", got)
	}
	if got := LogSumExp([]float64{math.Inf(-1), math.Inf(-1)}); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(-Inf...) = %v, want -Inf", got)
	}
}

func TestSoftmax(t *testing.T) {
	got := Softmax(nil, []float64{0, 0, 0})
	want := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	if !ApproxEqual(got, want, 1e-12) {
		t.Errorf("Softmax uniform = %v", got)
	}
	// Shift invariance.
	a := []float64{1, 2, 3}
	b := []float64{101, 102, 103}
	if !ApproxEqual(Softmax(nil, a), Softmax(nil, b), 1e-12) {
		t.Error("Softmax not shift invariant")
	}
	if got := Sum(Softmax(nil, []float64{-3, 9, 0.4})); !almostEq(got, 1, 1e-12) {
		t.Errorf("Softmax does not normalize: sum=%v", got)
	}
}

func TestProjectL2Ball(t *testing.T) {
	inside := []float64{0.1, 0.2}
	if got := ProjectL2Ball(inside, 1); !ApproxEqual(got, inside, 0) {
		t.Errorf("interior point moved: %v", got)
	}
	out := ProjectL2Ball([]float64{3, 4}, 1)
	if !almostEq(Norm2(out), 1, 1e-12) {
		t.Errorf("projection norm = %v, want 1", Norm2(out))
	}
	if !ApproxEqual(out, []float64{0.6, 0.8}, 1e-12) {
		t.Errorf("projection direction wrong: %v", out)
	}
	if got := ProjectL2Ball([]float64{1, 1}, 0); !ApproxEqual(got, []float64{0, 0}, 0) {
		t.Errorf("r=0 projection = %v", got)
	}
}

func TestProjectBox(t *testing.T) {
	got := ProjectBox([]float64{-2, 0.5, 2}, 0, 1)
	if !ApproxEqual(got, []float64{0, 0.5, 1}, 0) {
		t.Errorf("ProjectBox = %v", got)
	}
}

func TestProjectSimplex(t *testing.T) {
	cases := [][]float64{
		{0.2, 0.3, 0.5},      // already on simplex
		{1, 0, 0},            // vertex
		{5, 0, 0},            // projects to vertex
		{-1, -1, -1},         // all negative -> uniform
		{0.5, 0.5, 0.5, 0.5}, // symmetric
	}
	for _, c := range cases {
		p := ProjectSimplex(c)
		if !almostEq(Sum(p), 1, 1e-9) {
			t.Errorf("ProjectSimplex(%v) sums to %v", c, Sum(p))
		}
		for _, v := range p {
			if v < 0 {
				t.Errorf("ProjectSimplex(%v) has negative entry %v", c, v)
			}
		}
	}
	// Fixed point: a simplex point projects to itself.
	p := ProjectSimplex([]float64{0.2, 0.3, 0.5})
	if !ApproxEqual(p, []float64{0.2, 0.3, 0.5}, 1e-9) {
		t.Errorf("simplex point moved: %v", p)
	}
	if got := ProjectSimplex(nil); got != nil {
		t.Errorf("ProjectSimplex(nil) = %v", got)
	}
}

// Property: the simplex projection is the nearest simplex point — it must be
// at least as close to the input as a bunch of random simplex points.
func TestProjectSimplexIsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := 2 + rng.Intn(6)
		a := make([]float64, d)
		for i := range a {
			a[i] = rng.NormFloat64() * 2
		}
		p := ProjectSimplex(a)
		dp := Dist2(a, p)
		for probe := 0; probe < 20; probe++ {
			q := make([]float64, d)
			var s float64
			for i := range q {
				q[i] = rng.ExpFloat64()
				s += q[i]
			}
			for i := range q {
				q[i] /= s
			}
			if Dist2(a, q) < dp-1e-9 {
				t.Fatalf("found simplex point closer than projection: a=%v p=%v q=%v", a, p, q)
			}
		}
	}
}

// Property: projection onto the L2 ball is a contraction toward every ball
// point, and idempotent.
func TestProjectL2BallProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		a := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			a[i] = math.Mod(v, 100)
		}
		p := ProjectL2Ball(a, 1)
		if Norm2(p) > 1+1e-9 {
			return false
		}
		pp := ProjectL2Ball(p, 1)
		return ApproxEqual(p, pp, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLogSumExpMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		a := make([]float64, n)
		var naive float64
		for i := range a {
			a[i] = rng.NormFloat64() * 3
			naive += math.Exp(a[i])
		}
		if got := LogSumExp(a); !almostEq(got, math.Log(naive), 1e-9) {
			t.Fatalf("LogSumExp mismatch: got %v want %v (a=%v)", got, math.Log(naive), a)
		}
	}
}

func TestFillZerosCopy(t *testing.T) {
	z := Zeros(3)
	if !ApproxEqual(z, []float64{0, 0, 0}, 0) {
		t.Errorf("Zeros = %v", z)
	}
	z[0] = 2
	c := Copy(z)
	c[0] = 99
	if z[0] != 2 {
		t.Error("Copy aliased input")
	}
}

func TestScaleInPlaceAndAddConst(t *testing.T) {
	a := []float64{1, -2, 3}
	ScaleInPlace(a, 2)
	if a[0] != 2 || a[1] != -4 || a[2] != 6 {
		t.Errorf("ScaleInPlace = %v", a)
	}
	AddConst(a, -1)
	if a[0] != 1 || a[1] != -5 || a[2] != 5 {
		t.Errorf("AddConst = %v", a)
	}
}

func TestExpShiftedSumMatchesSoftmax(t *testing.T) {
	a := []float64{0.5, -1.25, 3, 0, -7}
	m, _ := Max(a)
	dst := make([]float64, len(a))
	z := ExpShiftedSum(dst, a, m)
	ScaleInPlace(dst, 1/z)
	want := Softmax(nil, a)
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-15 {
			t.Errorf("fused softmax[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestAddScaledMax(t *testing.T) {
	dst := []float64{1, 2, 3}
	a := []float64{10, -1, 0}
	m := AddScaledMax(dst, 0.5, a)
	if dst[0] != 6 || dst[1] != 1.5 || dst[2] != 3 {
		t.Errorf("AddScaledMax dst = %v", dst)
	}
	if m != 6 {
		t.Errorf("AddScaledMax max = %v, want 6", m)
	}
	if m := AddScaledMax(nil, 1, nil); !math.IsInf(m, -1) {
		t.Errorf("empty AddScaledMax = %v, want -Inf", m)
	}
}

// LogSumExp, ProjectBox and ProjectSimplex have no caller outside the
// tests in this file.

// LogSumExp returns log Σ exp(aᵢ) computed stably. For an empty slice it
// returns −Inf (the log of an empty sum).
func LogSumExp(a []float64) float64 {
	if len(a) == 0 {
		return math.Inf(-1)
	}
	m, _ := Max(a)
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, v := range a {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// ProjectBox returns the entrywise projection of a onto [lo, hi]^d.
func ProjectBox(a []float64, lo, hi float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = Clamp(v, lo, hi)
	}
	return out
}

// ProjectSimplex returns the Euclidean projection of a onto the probability
// simplex {p : pᵢ ≥ 0, Σpᵢ = 1}, using the sort-based algorithm of
// Held, Wolfe and Crowder.
func ProjectSimplex(a []float64) []float64 {
	n := len(a)
	if n == 0 {
		return nil
	}
	sorted := Copy(a)
	// Insertion sort descending; universes here are small enough that the
	// O(n²) worst case never dominates, and it avoids an interface shim.
	for i := 1; i < n; i++ {
		v := sorted[i]
		j := i - 1
		for j >= 0 && sorted[j] < v {
			sorted[j+1] = sorted[j]
			j--
		}
		sorted[j+1] = v
	}
	var cum float64
	var rho int
	var theta float64
	for i := 0; i < n; i++ {
		cum += sorted[i]
		t := (cum - 1) / float64(i+1)
		if sorted[i]-t > 0 {
			rho = i
			theta = t
		}
	}
	_ = rho
	out := make([]float64, n)
	for i, v := range a {
		if w := v - theta; w > 0 {
			out[i] = w
		}
	}
	return out
}
