package sample

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("equal seeds diverged")
		}
	}
	if New(1).Float64() == New(2).Float64() {
		t.Error("different seeds produced identical first draw (suspicious)")
	}
}

func TestSplitIndependentButDeterministic(t *testing.T) {
	a := New(7)
	b := New(7)
	ca := a.Split()
	cb := b.Split()
	for i := 0; i < 50; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatal("split children of equal parents diverged")
		}
	}
	// Parent stream continues after split, still deterministically.
	if a.Float64() != b.Float64() {
		t.Fatal("parent streams diverged after split")
	}
}

// moments estimates mean and variance of n draws.
func moments(n int, draw func() float64) (mean, variance float64) {
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := draw()
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return
}

func TestLaplaceMoments(t *testing.T) {
	s := New(1)
	b := 2.0
	mean, variance := moments(200000, func() float64 { return s.Laplace(b) })
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	// Var = 2b² = 8.
	if math.Abs(variance-8) > 0.3 {
		t.Errorf("Laplace variance = %v, want ~8", variance)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	s := New(1)
	for i := 0; i < 10; i++ {
		if s.Laplace(0) != 0 {
			t.Fatal("Laplace(0) must be exactly 0")
		}
	}
}

func TestLaplaceTailSymmetry(t *testing.T) {
	s := New(3)
	n := 100000
	var pos, neg int
	for i := 0; i < n; i++ {
		if s.Laplace(1) > 0 {
			pos++
		} else {
			neg++
		}
	}
	ratio := float64(pos) / float64(n)
	if math.Abs(ratio-0.5) > 0.01 {
		t.Errorf("Laplace sign ratio = %v, want ~0.5", ratio)
	}
}

func TestGaussianMoments(t *testing.T) {
	s := New(2)
	mean, variance := moments(200000, func() float64 { return s.Gaussian(3, 2) })
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Gaussian mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("Gaussian variance = %v, want ~4", variance)
	}
}

func TestExponentialMoments(t *testing.T) {
	s := New(4)
	mean, _ := moments(200000, func() float64 { return s.Exponential(3) })
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("Exponential mean = %v, want ~3", mean)
	}
}

func TestGumbelMaxTrick(t *testing.T) {
	// argmax(score_i + Gumbel(beta)) should sample i w.p. ∝ exp(score_i/beta).
	s := New(5)
	scores := []float64{0, math.Log(2), math.Log(4)} // beta=1 → probs 1/7, 2/7, 4/7
	counts := make([]int, 3)
	n := 140000
	for trial := 0; trial < n; trial++ {
		best, idx := math.Inf(-1), 0
		for i, sc := range scores {
			if v := sc + s.Gumbel(1); v > best {
				best, idx = v, i
			}
		}
		counts[idx]++
	}
	want := []float64{1.0 / 7, 2.0 / 7, 4.0 / 7}
	for i, c := range counts {
		got := float64(c) / float64(n)
		if math.Abs(got-want[i]) > 0.01 {
			t.Errorf("Gumbel-max P(%d) = %v, want %v", i, got, want[i])
		}
	}
}

func TestUnitVec(t *testing.T) {
	s := New(6)
	for i := 0; i < 100; i++ {
		v := s.UnitVec(5)
		var n2 float64
		for _, x := range v {
			n2 += x * x
		}
		if math.Abs(n2-1) > 1e-9 {
			t.Fatalf("UnitVec norm² = %v", n2)
		}
	}
}

func TestBallVec(t *testing.T) {
	s := New(7)
	for i := 0; i < 200; i++ {
		v := s.BallVec(3, 2)
		var n2 float64
		for _, x := range v {
			n2 += x * x
		}
		if n2 > 4+1e-9 {
			t.Fatalf("BallVec outside radius: ‖v‖² = %v", n2)
		}
	}
}

func TestCategorical(t *testing.T) {
	s := New(8)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	n := 80000
	for i := 0; i < n; i++ {
		counts[s.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[1])
	}
	got := float64(counts[2]) / float64(n)
	if math.Abs(got-0.75) > 0.01 {
		t.Errorf("P(2) = %v, want 0.75", got)
	}
}

func TestCategoricalPanics(t *testing.T) {
	s := New(9)
	for _, w := range [][]float64{{0, 0}, {-1, 2}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			s.Categorical(w)
		}()
	}
}

// TestCategoricalIntoMatchesCategorical pins the batched sampler to the
// per-draw one: on the same seed, every draw is the same index, for weight
// vectors with leading, interior and trailing zeros, a single cell, and a
// long skewed vector.
func TestCategoricalIntoMatchesCategorical(t *testing.T) {
	skewed := make([]float64, 3888)
	for i := range skewed {
		skewed[i] = 1 / math.Pow(float64(i+1), 1.3)
	}
	skewed[17], skewed[18], skewed[3887] = 0, 0, 0
	for _, w := range [][]float64{
		{1, 0, 3},
		{0, 0, 2, 0, 0, 5, 0},
		{0.25, 0, 0, 0.75, 0, 0, 0},
		{7},
		{0, 0, 1e-300, 0},
		skewed,
	} {
		for _, seed := range []int64{1, 2, 99} {
			got := make([]int, 5000)
			New(seed).CategoricalInto(got, w)
			ref := New(seed)
			for k, g := range got {
				if want := ref.Categorical(w); g != want {
					t.Fatalf("len(w)=%d seed %d draw %d: CategoricalInto %d, Categorical %d", len(w), seed, k, g, want)
				}
			}
		}
	}
}

func TestCategoricalIntoPanics(t *testing.T) {
	s := New(9)
	for _, w := range [][]float64{{}, {0, 0}, {-1, 2}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CategoricalInto(%v) did not panic", w)
				}
			}()
			s.CategoricalInto(make([]int, 1), w)
		}()
	}
}

func TestBernoulli(t *testing.T) {
	s := New(10)
	if s.Bernoulli(0) || !s.Bernoulli(1) {
		t.Fatal("Bernoulli extremes wrong")
	}
	n := 100000
	var hits int
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if got := float64(hits) / float64(n); math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", got)
	}
}

// The Laplace distribution's defining DP property: for |Δ| ≤ sensitivity,
// density ratio at any point is bounded by exp(Δ/b). Verify empirically by
// histogramming two shifted samples.
func TestLaplaceDensityRatio(t *testing.T) {
	s := New(11)
	b := 1.0
	shift := 1.0 // sensitivity
	n := 400000
	bins := 40
	lo, hi := -5.0, 5.0
	width := (hi - lo) / float64(bins)
	h0 := make([]float64, bins)
	h1 := make([]float64, bins)
	for i := 0; i < n; i++ {
		x0 := s.Laplace(b)
		x1 := shift + s.Laplace(b)
		if x0 >= lo && x0 < hi {
			h0[int((x0-lo)/width)]++
		}
		if x1 >= lo && x1 < hi {
			h1[int((x1-lo)/width)]++
		}
	}
	eps := shift / b
	slackFactor := 1.25 // statistical tolerance
	for i := 0; i < bins; i++ {
		if h0[i] < 500 || h1[i] < 500 {
			continue // too few samples for a stable ratio
		}
		ratio := h0[i] / h1[i]
		if ratio > math.Exp(eps)*slackFactor || ratio < math.Exp(-eps)/slackFactor {
			t.Errorf("bin %d density ratio %v outside e^±%v", i, ratio, eps)
		}
	}
}

// BallVec returns a uniform random point in the ball of radius r in R^d.
// It has no caller outside the tests in this file.
func (s *Source) BallVec(d int, r float64) []float64 {
	v := s.UnitVec(d)
	// Radius ~ r · U^{1/d} gives uniform volume measure.
	scale := r * math.Pow(s.rng.Float64(), 1/float64(d))
	for i := range v {
		v[i] *= scale
	}
	return v
}
