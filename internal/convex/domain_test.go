package convex

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sample"
	"repro/internal/vecmath"
)

func TestL2Ball(t *testing.T) {
	b, err := NewL2Ball(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dim() != 3 || b.Radius() != 2 || b.Diameter() != 4 {
		t.Fatalf("ball metadata wrong: %v", b)
	}
	if !b.Contains(b.Center(), 0) {
		t.Error("center not contained")
	}
	p := b.Project([]float64{6, 0, 0})
	if !vecmath.ApproxEqual(p, []float64{2, 0, 0}, 1e-12) {
		t.Errorf("Project = %v", p)
	}
	inside := []float64{0.5, 0.5, 0}
	if got := b.Project(inside); !vecmath.ApproxEqual(got, inside, 0) {
		t.Errorf("interior moved: %v", got)
	}
	if b.Contains([]float64{3, 0, 0}, 0.5) {
		t.Error("far point contained")
	}
	if b.Contains([]float64{1, 1}, 0) {
		t.Error("wrong-dim point contained")
	}
}

func TestL2BallValidation(t *testing.T) {
	for _, c := range []struct {
		d int
		r float64
	}{{0, 1}, {2, 0}, {2, -1}, {2, math.NaN()}, {2, math.Inf(1)}} {
		if _, err := NewL2Ball(c.d, c.r); err == nil {
			t.Errorf("NewL2Ball(%d, %v) accepted", c.d, c.r)
		}
	}
}

func TestInterval(t *testing.T) {
	iv, err := NewInterval(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Dim() != 1 || iv.Diameter() != 1 {
		t.Fatal("interval metadata wrong")
	}
	if got := iv.Project([]float64{2})[0]; got != 1 {
		t.Errorf("Project(2) = %v", got)
	}
	if got := iv.Project([]float64{-2})[0]; got != 0 {
		t.Errorf("Project(-2) = %v", got)
	}
	if got := iv.Center()[0]; got != 0.5 {
		t.Errorf("Center = %v", got)
	}
	if !iv.Contains([]float64{1}, 0) || iv.Contains([]float64{1.5}, 0.1) {
		t.Error("Contains wrong")
	}
	for _, c := range [][2]float64{{1, 0}, {0, 0}, {math.NaN(), 1}, {0, math.Inf(1)}} {
		if _, err := NewInterval(c[0], c[1]); err == nil {
			t.Errorf("NewInterval(%v,%v) accepted", c[0], c[1])
		}
	}
}

func TestBox(t *testing.T) {
	b, err := NewBox(2, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Diameter()-2*math.Sqrt2) > 1e-12 {
		t.Errorf("Diameter = %v", b.Diameter())
	}
	got := b.Project([]float64{5, -0.5})
	if !vecmath.ApproxEqual(got, []float64{1, -0.5}, 0) {
		t.Errorf("Project = %v", got)
	}
	if !b.Contains([]float64{0, 0}, 0) || b.Contains([]float64{2, 0}, 0) {
		t.Error("Contains wrong")
	}
	if b.Contains([]float64{0}, 0) {
		t.Error("wrong dim contained")
	}
	if _, err := NewBox(0, 0, 1); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewBox(2, 1, 0); err == nil {
		t.Error("lo>hi accepted")
	}
}

// Projection properties shared by every domain: idempotence, membership,
// and non-expansiveness toward domain points.
func TestProjectionProperties(t *testing.T) {
	ball, _ := NewL2Ball(4, 1.5)
	box, _ := NewBox(3, -2, 0.5)
	iv, _ := NewInterval(-3, 7)
	doms := []Domain{ball, box, iv}
	src := sample.New(9)
	for _, dom := range doms {
		for trial := 0; trial < 100; trial++ {
			v := make([]float64, dom.Dim())
			for i := range v {
				v[i] = src.Gaussian(0, 4)
			}
			p := dom.Project(v)
			if !dom.Contains(p, 1e-9) {
				t.Fatalf("%s: projection leaves domain: %v", dom, p)
			}
			p2 := dom.Project(p)
			if !vecmath.ApproxEqual(p, p2, 1e-9) {
				t.Fatalf("%s: projection not idempotent", dom)
			}
			// Projection is closer to the center (a domain point) than v is,
			// whenever v is outside.
			c := dom.Center()
			if !dom.Contains(v, 1e-9) {
				if vecmath.Dist2(p, c) > vecmath.Dist2(v, c)+1e-9 {
					t.Fatalf("%s: projection moved away from center", dom)
				}
			}
		}
	}
}

func TestDomainLinearMinimizers(t *testing.T) {
	ball, _ := NewL2Ball(2, 2)
	s := ball.MinimizeLinear([]float64{3, 4})
	// −R·dir/‖dir‖ = (−1.2, −1.6).
	if math.Abs(s[0]+1.2) > 1e-12 || math.Abs(s[1]+1.6) > 1e-12 {
		t.Errorf("ball LMO = %v", s)
	}
	if got := ball.MinimizeLinear([]float64{0, 0}); got[0] != 0 || got[1] != 0 {
		t.Errorf("ball LMO at 0 = %v", got)
	}
	iv, _ := NewInterval(0, 1)
	if got := iv.MinimizeLinear([]float64{2})[0]; got != 0 {
		t.Errorf("interval LMO = %v", got)
	}
	if got := iv.MinimizeLinear([]float64{-2})[0]; got != 1 {
		t.Errorf("interval LMO = %v", got)
	}
}

// Box is the domain [lo, hi]^d. No loss of the registry uses it; the
// domain tests run it as a third domain beside L2Ball and Interval.
type Box struct {
	d      int
	lo, hi float64
}

// NewBox constructs [lo, hi]^d.
func NewBox(d int, lo, hi float64) (*Box, error) {
	if d < 1 {
		return nil, fmt.Errorf("convex: box dimension %d < 1", d)
	}
	if !(lo < hi) || math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("convex: invalid box bounds [%v, %v]", lo, hi)
	}
	return &Box{d: d, lo: lo, hi: hi}, nil
}

// Dim returns d.
func (b *Box) Dim() int { return b.d }

// Project clamps coordinatewise.
func (b *Box) Project(theta []float64) []float64 {
	out := make([]float64, len(theta))
	for i, v := range theta {
		out[i] = vecmath.Clamp(v, b.lo, b.hi)
	}
	return out
}

// Contains reports coordinatewise membership up to tol.
func (b *Box) Contains(theta []float64, tol float64) bool {
	if len(theta) != b.d {
		return false
	}
	for _, v := range theta {
		if v < b.lo-tol || v > b.hi+tol {
			return false
		}
	}
	return true
}

// Diameter returns (hi−lo)·√d.
func (b *Box) Diameter() float64 { return (b.hi - b.lo) * math.Sqrt(float64(b.d)) }

// Center returns the midpoint in every coordinate.
func (b *Box) Center() []float64 {
	c := make([]float64, b.d)
	for i := range c {
		c[i] = (b.lo + b.hi) / 2
	}
	return c
}

// String describes the box.
func (b *Box) String() string { return fmt.Sprintf("Box(d=%d, [%g,%g])", b.d, b.lo, b.hi) }

// MinimizeLinear returns the box corner minimizing ⟨dir, θ⟩.
func (b *Box) MinimizeLinear(dir []float64) []float64 {
	out := make([]float64, b.d)
	for i, v := range dir {
		if v > 0 {
			out[i] = b.lo
		} else {
			out[i] = b.hi
		}
	}
	return out
}
