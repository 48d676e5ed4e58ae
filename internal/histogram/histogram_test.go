package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/vecmath"
)

func cube(t *testing.T, d int) *universe.Hypercube {
	t.Helper()
	u, err := universe.NewHypercube(d)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUniform(t *testing.T) {
	u := cube(t, 3)
	h := Uniform(u)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, p := range h.P {
		if math.Abs(p-1.0/8) > 1e-12 {
			t.Errorf("P[%d] = %v, want 1/8", i, p)
		}
	}
}

func TestFromCounts(t *testing.T) {
	u := cube(t, 2)
	h, err := FromCounts(u, []int{1, 0, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.P[0]-0.25) > 1e-12 || math.Abs(h.P[2]-0.75) > 1e-12 {
		t.Errorf("P = %v", h.P)
	}
	if _, err := FromCounts(u, []int{0, 0, 0, 0}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := FromCounts(u, []int{1, -1, 0, 0}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := FromCounts(u, []int{1, 2}); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestFromRows(t *testing.T) {
	u := cube(t, 2)
	h, err := FromRows(u, []int{0, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.25, 0.25, 0}
	for i := range want {
		if math.Abs(h.P[i]-want[i]) > 1e-12 {
			t.Errorf("P[%d] = %v, want %v", i, h.P[i], want[i])
		}
	}
	if _, err := FromRows(u, []int{4}); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := FromRows(u, []int{-1}); err == nil {
		t.Error("negative row accepted")
	}
}

func TestFromProbsValidate(t *testing.T) {
	u := cube(t, 1)
	if _, err := FromProbs(u, []float64{0.5, 0.5}); err != nil {
		t.Errorf("valid rejected: %v", err)
	}
	bad := [][]float64{
		{0.5, 0.6},        // mass > 1
		{-0.1, 1.1},       // negative
		{math.NaN(), 1},   // NaN
		{math.Inf(1), 0},  // Inf
		{0.5, 0.25, 0.25}, // wrong length
	}
	for _, p := range bad {
		if _, err := FromProbs(u, p); err == nil {
			t.Errorf("invalid probs %v accepted", p)
		}
	}
}

// Paper §2.1: adjacent datasets D ~ D′ have close histograms. Replacing one
// of n rows moves at most 1/n of mass out of one cell into another, so
// per-cell difference ≤ 1/n and L1 ≤ 2/n.
func TestAdjacencyDistance(t *testing.T) {
	u := cube(t, 3)
	src := sample.New(1)
	n := 40
	rows := Uniform(u).SampleRows(src, n)
	h, err := FromRows(u, rows)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		j := src.Intn(n)
		v := src.Intn(u.Size())
		rows2 := AdjacentRows(rows, j, v)
		h2, err := FromRows(u, rows2)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.L1(h2); got > 2.0/float64(n)+1e-12 {
			t.Errorf("L1 between adjacent histograms = %v > 2/n", got)
		}
	}
}

func TestAdjacentRowsDoesNotMutate(t *testing.T) {
	rows := []int{1, 2, 3}
	out := AdjacentRows(rows, 0, 9)
	if rows[0] != 1 {
		t.Error("input mutated")
	}
	if out[0] != 9 || out[1] != 2 {
		t.Errorf("out = %v", out)
	}
}

func TestDistances(t *testing.T) {
	u := cube(t, 1)
	a, _ := FromProbs(u, []float64{1, 0})
	b, _ := FromProbs(u, []float64{0, 1})
	if got := a.L1(b); got != 2 {
		t.Errorf("L1 = %v, want 2", got)
	}
}

func TestKL(t *testing.T) {
	u := cube(t, 1)
	uni, _ := FromProbs(u, []float64{0.5, 0.5})
	point, _ := FromProbs(u, []float64{1, 0})
	// KL(point ‖ uniform) = log 2.
	if got := uni.KL(point); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("KL = %v, want log2", got)
	}
	// KL(g‖g) = 0.
	if got := uni.KL(uni); got != 0 {
		t.Errorf("KL self = %v", got)
	}
	// Mass where support is missing → +Inf.
	if got := point.KL(uni); !math.IsInf(got, 1) {
		t.Errorf("KL missing support = %v, want +Inf", got)
	}
	// KL ≥ 0 always (Gibbs).
	a, _ := FromProbs(u, []float64{0.3, 0.7})
	b, _ := FromProbs(u, []float64{0.6, 0.4})
	if got := a.KL(b); got < 0 {
		t.Errorf("KL negative: %v", got)
	}
}

// Pinsker's inequality: TV(g,h)² ≤ KL(g‖h)/2, a quantitative link the MW
// analysis leans on implicitly. Property-check on random distributions.
func TestPinsker(t *testing.T) {
	u := cube(t, 3)
	f := func(seedRaw int64) bool {
		src := sample.New(seedRaw)
		mk := func() *Histogram {
			p := make([]float64, u.Size())
			var s float64
			for i := range p {
				p[i] = src.Exponential(1) + 1e-6
				s += p[i]
			}
			for i := range p {
				p[i] /= s
			}
			h, err := FromProbs(u, p)
			if err != nil {
				t.Fatalf("bad random histogram: %v", err)
			}
			return h
		}
		g, h := mk(), mk()
		tv := g.L1(h) / 2
		kl := h.KL(g) // KL(g ‖ h)
		return tv*tv <= kl/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndExpect(t *testing.T) {
	u := cube(t, 1)
	h, _ := FromProbs(u, []float64{0.25, 0.75})
	q := []float64{1, 0}
	if got := h.Dot(q); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Dot = %v", got)
	}
	got := h.Expect(func(i int) float64 { return float64(i * 10) })
	if math.Abs(got-7.5) > 1e-12 {
		t.Errorf("Expect = %v", got)
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	u := cube(t, 1)
	h, _ := FromProbs(u, []float64{0.2, 0.8})
	src := sample.New(5)
	n := 100000
	var ones int
	for _, r := range h.SampleRows(src, n) {
		if r == 1 {
			ones++
		}
	}
	if got := float64(ones) / float64(n); math.Abs(got-0.8) > 0.01 {
		t.Errorf("sample rate = %v, want 0.8", got)
	}
}

func TestSampleRowsRoundTrip(t *testing.T) {
	u := cube(t, 2)
	h, _ := FromProbs(u, []float64{0.1, 0.2, 0.3, 0.4})
	src := sample.New(6)
	rows := h.SampleRows(src, 50000)
	emp, err := FromRows(u, rows)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.L1(emp); got > 0.03 {
		t.Errorf("empirical L1 from truth = %v", got)
	}
}

func TestClone(t *testing.T) {
	u := cube(t, 1)
	h, _ := FromProbs(u, []float64{0.5, 0.5})
	c := h.Clone()
	c.P[0] = 0.9
	if h.P[0] != 0.5 {
		t.Error("Clone aliased")
	}
}

// Dot returns Σ q(x)·h(x) — the answer of the linear query q on h, in the
// paper's ⟨q, D⟩ notation. Dot and Expect have no caller outside the tests
// in this file.
func (h *Histogram) Dot(q []float64) float64 { return vecmath.Dot(q, h.P) }

// Expect returns E_{x←h}[f(x)] for a function given per universe index.
// This evaluates ℓ(θ; D) = Σ_x D(x)·ℓ(θ; x) when f is the per-element loss.
func (h *Histogram) Expect(f func(i int) float64) float64 {
	var s float64
	for i, p := range h.P {
		if p == 0 {
			continue
		}
		s += p * f(i)
	}
	return s
}
