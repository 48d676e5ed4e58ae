package dataset

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/histogram"
	"repro/internal/sample"
	"repro/internal/universe"
)

func grid(t *testing.T) *universe.LabeledGrid {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	u, _ := universe.NewHypercube(2)
	if _, err := New(u, nil); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := New(u, []int{0, 4}); err == nil {
		t.Error("out-of-range row accepted")
	}
	d, err := New(u, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 {
		t.Errorf("N = %d", d.N())
	}
}

func TestHistogramRoundTrip(t *testing.T) {
	u, _ := universe.NewHypercube(2)
	d, _ := New(u, []int{0, 0, 3, 1})
	h := d.Histogram()
	want := []float64{0.5, 0.25, 0, 0.25}
	for i := range want {
		if math.Abs(h.P[i]-want[i]) > 1e-12 {
			t.Errorf("P[%d] = %v, want %v", i, h.P[i], want[i])
		}
	}
}

// TestHistogramSharedOnce calls Histogram from many goroutines at once:
// every caller gets the one histogram the dataset owns, equal to a fresh
// count of the rows.
func TestHistogramSharedOnce(t *testing.T) {
	g := grid(t)
	pop, err := Skewed(g, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	d := SampleFrom(sample.New(4), pop, 20000)
	const callers = 8
	got := make([]*histogram.Histogram, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			got[i] = d.Histogram()
		}(i)
	}
	start.Done()
	done.Wait()
	for i, h := range got {
		if h != got[0] {
			t.Fatalf("caller %d got histogram %p, caller 0 got %p", i, h, got[0])
		}
	}
	if d.Histogram() != got[0] {
		t.Fatal("a later call built a second histogram")
	}
	fresh, err := histogram.FromRows(d.U, d.Rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range fresh.P {
		if got[0].P[i] != p {
			t.Fatalf("P[%d] = %v, fresh count gives %v", i, got[0].P[i], p)
		}
	}
}

func TestAdjacent(t *testing.T) {
	u, _ := universe.NewHypercube(2)
	d, _ := New(u, []int{0, 1, 2})
	d2 := d.Adjacent(1, 3)
	if d.Rows[1] != 1 {
		t.Error("original mutated")
	}
	if d2.Rows[1] != 3 || d2.Rows[0] != 0 {
		t.Errorf("adjacent rows = %v", d2.Rows)
	}
	if got := d.Histogram().L1(d2.Histogram()); got > 2.0/3+1e-12 {
		t.Errorf("adjacent L1 = %v", got)
	}
}

func TestSampleFrom(t *testing.T) {
	u, _ := universe.NewHypercube(2)
	pop, err := Skewed(u, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(1)
	d := SampleFrom(src, pop, 20000)
	if d.N() != 20000 {
		t.Fatalf("N = %d", d.N())
	}
	if got := d.Histogram().L1(pop); got > 0.05 {
		t.Errorf("sample far from population: L1 = %v", got)
	}
}

func TestLinearModel(t *testing.T) {
	g := grid(t)
	src := sample.New(2)
	theta := []float64{1, -0.5}
	pop, err := LinearModel(src, g, theta, 0.1, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	// The population should correlate labels with ⟨θ*, x⟩: the expected
	// product E[y·⟨θ*,x⟩] must be clearly positive.
	var corr float64
	for i, p := range pop.P {
		if p == 0 {
			continue
		}
		pt := g.Point(i)
		dot := theta[0]*pt[0] + theta[1]*pt[1]
		corr += p * dot * pt[2]
	}
	if corr <= 0.01 {
		t.Errorf("label/model correlation = %v, want clearly positive", corr)
	}
	if _, err := LinearModel(src, g, []float64{1}, 0.1, 10); err == nil {
		t.Error("wrong theta dim accepted")
	}
	if _, err := LinearModel(src, g, theta, 0.1, 0); err == nil {
		t.Error("draws=0 accepted")
	}
}

func TestLogisticModel(t *testing.T) {
	g := grid(t)
	src := sample.New(3)
	theta := []float64{2, 0}
	pop, err := LogisticModel(src, g, theta, 0.25, 30000)
	if err != nil {
		t.Fatal(err)
	}
	// Labels should be extreme grid values only (±labelRadius after
	// rounding of ±huge), and positively correlated with x₀.
	var corr float64
	for i, p := range pop.P {
		if p == 0 {
			continue
		}
		pt := g.Point(i)
		if math.Abs(math.Abs(pt[2])-2.0) > 1e-9 {
			t.Fatalf("logistic label %v not extreme", pt[2])
		}
		corr += p * pt[0] * pt[2]
	}
	if corr <= 0.01 {
		t.Errorf("logistic correlation = %v", corr)
	}
	if _, err := LogisticModel(src, g, theta, 0, 10); err == nil {
		t.Error("temp=0 accepted")
	}
	if _, err := LogisticModel(src, g, []float64{1, 2, 3}, 1, 10); err == nil {
		t.Error("wrong theta dim accepted")
	}
}

func TestSkewed(t *testing.T) {
	u, _ := universe.NewHypercube(3)
	pop, err := Skewed(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	// Monotone decreasing.
	for i := 1; i < len(pop.P); i++ {
		if pop.P[i] > pop.P[i-1]+1e-15 {
			t.Fatalf("skewed not monotone at %d", i)
		}
	}
	// s=0 is uniform.
	uni, _ := Skewed(u, 0)
	for _, p := range uni.P {
		if math.Abs(p-1.0/8) > 1e-12 {
			t.Errorf("Skewed(0) not uniform: %v", p)
		}
	}
	if _, err := Skewed(u, -1); err == nil {
		t.Error("negative skew accepted")
	}
}

func TestPointMass(t *testing.T) {
	u, _ := universe.NewHypercube(2)
	pm, err := PointMass(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pm.P[2] != 1 {
		t.Errorf("P = %v", pm.P)
	}
	if _, err := PointMass(u, 4); err == nil {
		t.Error("bad index accepted")
	}
	if _, err := PointMass(u, -1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestMixture(t *testing.T) {
	u, _ := universe.NewHypercube(2)
	m, err := Mixture(u, []int{0, 3}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.P[0]-0.25) > 1e-12 || math.Abs(m.P[3]-0.75) > 1e-12 {
		t.Errorf("P = %v", m.P)
	}
	// Repeated element accumulates.
	m2, err := Mixture(u, []int{1, 1}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m2.P[1] != 1 {
		t.Errorf("repeated element P = %v", m2.P)
	}
	for _, c := range []struct {
		e []int
		w []float64
	}{
		{nil, nil},
		{[]int{0}, []float64{1, 2}},
		{[]int{9}, []float64{1}},
		{[]int{0}, []float64{-1}},
		{[]int{0}, []float64{0}},
	} {
		if _, err := Mixture(u, c.e, c.w); err == nil {
			t.Errorf("Mixture(%v,%v) accepted", c.e, c.w)
		}
	}
}

// LogisticModel generates a binary-classification population: features
// uniform over the grid, label +r with probability sigmoid(⟨θ*,x⟩/temp) and
// −r otherwise, where r is the grid's label radius (recovered by rounding
// a huge label). LogisticModel and Mixture have no caller outside the
// tests in this file.
func LogisticModel(src *sample.Source, g *universe.LabeledGrid, theta []float64, temp float64, draws int) (*histogram.Histogram, error) {
	if len(theta) != g.FeatureDim() {
		return nil, fmt.Errorf("dataset: theta dim %d != feature dim %d", len(theta), g.FeatureDim())
	}
	if temp <= 0 {
		return nil, fmt.Errorf("dataset: temperature must be positive")
	}
	return modelPopulation(src, g, draws, func(x []float64) float64 {
		var dot float64
		for i, ti := range theta {
			dot += ti * x[i]
		}
		p := 1 / (1 + math.Exp(-dot/temp))
		if src.Bernoulli(p) {
			return math.MaxFloat64 / 2 // rounds to the largest label on the grid
		}
		return -math.MaxFloat64 / 2
	})
}

// Mixture returns a population that is a convex combination of point masses
// at the given universe elements with the given weights (normalized here).
func Mixture(u universe.Universe, elems []int, weights []float64) (*histogram.Histogram, error) {
	if len(elems) == 0 || len(elems) != len(weights) {
		return nil, fmt.Errorf("dataset: mixture needs equal, non-empty elems and weights")
	}
	p := make([]float64, u.Size())
	var z float64
	for i, e := range elems {
		if e < 0 || e >= u.Size() {
			return nil, fmt.Errorf("dataset: mixture element %d outside universe", e)
		}
		if weights[i] < 0 {
			return nil, fmt.Errorf("dataset: negative mixture weight")
		}
		p[e] += weights[i]
		z += weights[i]
	}
	if z == 0 {
		return nil, fmt.Errorf("dataset: mixture weights sum to zero")
	}
	for i := range p {
		p[i] /= z
	}
	return histogram.FromProbs(u, p)
}
