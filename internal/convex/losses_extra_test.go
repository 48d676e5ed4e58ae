package convex

import (
	"fmt"
	"math"
	"testing"
)

func TestPinballValidation(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	for _, c := range []struct{ tau, smooth, fb float64 }{
		{0, 0.1, 1}, {1, 0.1, 1}, {0.5, 0, 1}, {0.5, 0.1, 0},
	} {
		if _, err := NewPinball("p", ball, c.tau, c.smooth, c.fb); err == nil {
			t.Errorf("NewPinball(%v) accepted", c)
		}
	}
}

// The smoothed pinball profile must be continuous, have continuous
// derivative, and agree with the exact pinball outside the smoothing
// window.
func TestPinballProfileShape(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	tau, s := 0.3, 0.1
	pb, err := NewPinball("p", ball, tau, s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Exact pinball outside the window (up to the 1/featBound scale c=1).
	v, dv := pb.Scalar(0.5, 0) // r = 0.5 ≥ s
	if math.Abs(v-tau*0.5) > 1e-12 || math.Abs(dv-tau) > 1e-12 {
		t.Errorf("right branch: v=%v dv=%v", v, dv)
	}
	v, dv = pb.Scalar(-0.5, 0)
	if math.Abs(v-(1-tau)*0.5) > 1e-12 || math.Abs(dv-(tau-1)) > 1e-12 {
		t.Errorf("left branch: v=%v dv=%v", v, dv)
	}
	// Continuity at ±s.
	for _, r := range []float64{s, -s} {
		vIn, dIn := pb.Scalar(r-1e-9*sign(r), 0)
		vOut, dOut := pb.Scalar(r+1e-9*sign(r), 0)
		if math.Abs(vIn-vOut) > 1e-6 {
			t.Errorf("value jump at r=%v: %v vs %v", r, vIn, vOut)
		}
		if math.Abs(dIn-dOut) > 1e-6 {
			t.Errorf("slope jump at r=%v: %v vs %v", r, dIn, dOut)
		}
	}
	// Minimum at r = argmin: derivative zero inside the window at
	// r* = −b/(2a) = −(2τ−1)·s.
	rstar := -(2*tau - 1) * s
	if _, d := pb.Scalar(rstar, 0); math.Abs(d) > 1e-12 {
		t.Errorf("derivative at smoothed minimum = %v", d)
	}
}

func TestPoissonValidation(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	for _, c := range []struct{ zmax, ymax, fb float64 }{
		{0, 1, 1}, {1, 0, 1}, {1, 1, 0},
	} {
		if _, err := NewPoisson("p", ball, c.zmax, c.ymax, c.fb); err == nil {
			t.Errorf("NewPoisson(%v) accepted", c)
		}
	}
}

func TestPoissonProfile(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	ps, err := NewPoisson("p", ball, 1.0, 2.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// In the interior: profile = c(e^z − yz), derivative c(e^z − y).
	c := 1 / (math.E + 2.0)
	v, dv := ps.Scalar(0.5, 1)
	if math.Abs(v-c*(math.Exp(0.5)-0.5)) > 1e-12 {
		t.Errorf("v = %v", v)
	}
	if math.Abs(dv-c*(math.Exp(0.5)-1)) > 1e-12 {
		t.Errorf("dv = %v", dv)
	}
	// Beyond the clamp: linear continuation with the boundary slope.
	_, dOut := ps.Scalar(5, 1)
	_, dEdge := ps.Scalar(1, 1)
	if math.Abs(dOut-dEdge) > 1e-12 {
		t.Errorf("slope beyond clamp %v != boundary slope %v", dOut, dEdge)
	}
	// Negative labels clamp to 0; huge labels clamp to ymax.
	vNeg, _ := ps.Scalar(0.5, -3)
	vZero, _ := ps.Scalar(0.5, 0)
	if vNeg != vZero {
		t.Error("negative label not clamped to 0")
	}
	vBig, _ := ps.Scalar(0.5, 100)
	vMax, _ := ps.Scalar(0.5, 2)
	if vBig != vMax {
		t.Error("oversized label not clamped to ymax")
	}
	// Poisson minimum at z = log y for y in range: derivative zero.
	if _, d := ps.Scalar(math.Log(2), 2); math.Abs(d) > 1e-12 {
		t.Errorf("derivative at z=log y is %v", d)
	}
}

func TestScaledProperties(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	sq, _ := NewSquared("sq", ball, []float64{0, 0, 1}, 1, 1)
	if _, err := NewScaled(sq, 0); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := NewScaled(sq, math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
	sc, err := NewScaled(sq, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	theta := []float64{0.2, -0.1}
	x := []float64{0.3, 0.4, 0.5}
	if got, want := sc.Value(theta, x), 2.5*sq.Value(theta, x); math.Abs(got-want) > 1e-15 {
		t.Errorf("Value = %v, want %v", got, want)
	}
	if sc.Lipschitz() != 2.5 {
		t.Errorf("Lipschitz = %v", sc.Lipschitz())
	}
	if sc.Inner() != Loss(sq) {
		t.Error("Inner wrong")
	}
	// NewUnitLipschitz round trip.
	norm, err := NewUnitLipschitz(sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm.Lipschitz()-1) > 1e-12 {
		t.Errorf("normalized Lipschitz = %v", norm.Lipschitz())
	}
}

// Poisson is the (clamped) Poisson-regression negative log-likelihood in
// GLM form: profile exp(z) − y·z for a non-negative count label y, with z
// clamped to |z| ≤ zmax so the exponential's derivative — and hence the
// Lipschitz constant — stays bounded over the domain. Normalized to be
// 1-Lipschitz. It is not a registry kind, so no program builds it; the
// loss tests run it as a sixth GLM family.
type Poisson struct {
	glm
	zmax float64
	ymax float64
	c    float64
}

// NewPoisson constructs a Poisson loss. zmax bounds |⟨θ, x⟩| over Θ × X
// (e.g. diam(Θ)/2 · featBound) and ymax bounds the label.
func NewPoisson(name string, dom Domain, zmax, ymax, featBound float64) (*Poisson, error) {
	if zmax <= 0 || ymax <= 0 || featBound <= 0 {
		return nil, fmt.Errorf("convex: poisson bounds must be positive")
	}
	// |profile′| ≤ e^zmax + ymax, chain rule multiplies by featBound.
	c := 1 / ((math.Exp(zmax) + ymax) * featBound)
	l := &Poisson{zmax: zmax, ymax: ymax, c: c}
	l.glm = glm{name: name, dom: dom, profile: l.Scalar}
	return l, nil
}

// Scalar returns the profile c·(exp(z̄) − y⁺·z̄) and its derivative in z,
// where z̄ clamps z to [−zmax, zmax] and y⁺ clamps the label to [0, ymax].
// Outside the clamp the profile continues linearly (keeping convexity and
// the Lipschitz bound).
func (l *Poisson) Scalar(z, y float64) (float64, float64) {
	if y < 0 {
		y = 0
	} else if y > l.ymax {
		y = l.ymax
	}
	zc := z
	if zc > l.zmax {
		zc = l.zmax
	} else if zc < -l.zmax {
		zc = -l.zmax
	}
	base := math.Exp(zc) - y*zc
	slope := math.Exp(zc) - y
	// Linear continuation beyond the clamp preserves convexity.
	return l.c * (base + slope*(z-zc)), l.c * slope
}

var _ GLM = (*Poisson)(nil)
