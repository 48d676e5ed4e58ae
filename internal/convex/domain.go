// Package convex defines the convex-minimization query model of paper §2.2:
// a CM query is a convex loss ℓ : Θ × X → R over a convex parameter set Θ,
// and its answer on a histogram D is argmin_θ Σ_x D(x)·ℓ(θ; x).
//
// The package provides the Domain and Loss abstractions, a library of loss
// families matching the paper's applications (§4.2): Lipschitz bounded
// losses, generalized linear models, and strongly convex losses, plus the
// embedding of plain linear queries as 1-dimensional CM queries. Every loss
// certifies its own Lipschitz constant, strong-convexity modulus, and the
// paper's scale parameter S = max |⟨θ−θ′, ∇ℓ_x(θ)⟩|.
package convex

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// Domain is a convex parameter set Θ ⊆ R^dim supporting Euclidean
// projection. Implementations are immutable.
type Domain interface {
	// Dim returns the ambient dimension of Θ.
	Dim() int
	// Project returns the Euclidean projection of theta onto Θ (a fresh
	// slice).
	Project(theta []float64) []float64
	// Contains reports whether theta lies in Θ up to tolerance tol.
	Contains(theta []float64, tol float64) bool
	// Diameter returns an upper bound on sup{‖θ−θ′‖₂ : θ, θ′ ∈ Θ}.
	Diameter() float64
	// Center returns an interior starting point for iterative solvers.
	Center() []float64
	// MinimizeLinear returns a vertex of Θ minimizing ⟨dir, θ⟩: the linear
	// minimization oracle. One call at an iterate's gradient gives the
	// iterate's Frank–Wolfe gap, a certificate of its excess risk.
	MinimizeLinear(dir []float64) []float64
	// String describes the domain.
	String() string
}

// L2Ball is the domain {θ ∈ R^d : ‖θ‖₂ ≤ R} — the paper's "d-bounded"
// restriction with R = 1.
type L2Ball struct {
	d int
	r float64
}

// NewL2Ball constructs the radius-r ball in R^d.
func NewL2Ball(d int, r float64) (*L2Ball, error) {
	if d < 1 {
		return nil, fmt.Errorf("convex: ball dimension %d < 1", d)
	}
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("convex: ball radius %v must be positive and finite", r)
	}
	return &L2Ball{d: d, r: r}, nil
}

// Dim returns d.
func (b *L2Ball) Dim() int { return b.d }

// Radius returns R.
func (b *L2Ball) Radius() float64 { return b.r }

// Project clips theta to the ball.
func (b *L2Ball) Project(theta []float64) []float64 {
	return vecmath.ProjectL2Ball(theta, b.r)
}

// Contains reports ‖θ‖ ≤ R + tol.
func (b *L2Ball) Contains(theta []float64, tol float64) bool {
	return len(theta) == b.d && vecmath.Norm2(theta) <= b.r+tol
}

// Diameter returns 2R.
func (b *L2Ball) Diameter() float64 { return 2 * b.r }

// Center returns the origin.
func (b *L2Ball) Center() []float64 { return vecmath.Zeros(b.d) }

// String describes the ball.
func (b *L2Ball) String() string { return fmt.Sprintf("L2Ball(d=%d, r=%g)", b.d, b.r) }

// MinimizeLinear returns −R·dir/‖dir‖ (the ball's supporting point), or
// the center for dir = 0.
func (b *L2Ball) MinimizeLinear(dir []float64) []float64 {
	n := vecmath.Norm2(dir)
	if n == 0 {
		return b.Center()
	}
	return vecmath.Scale(-b.r/n, dir)
}

// Interval is the 1-dimensional domain [lo, hi], used to embed linear
// queries as CM queries.
type Interval struct {
	lo, hi float64
}

// NewInterval constructs [lo, hi] with lo < hi.
func NewInterval(lo, hi float64) (*Interval, error) {
	if !(lo < hi) || math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("convex: invalid interval [%v, %v]", lo, hi)
	}
	return &Interval{lo: lo, hi: hi}, nil
}

// Dim returns 1.
func (iv *Interval) Dim() int { return 1 }

// Project clamps into [lo, hi].
func (iv *Interval) Project(theta []float64) []float64 {
	return []float64{vecmath.Clamp(theta[0], iv.lo, iv.hi)}
}

// Contains reports lo − tol ≤ θ ≤ hi + tol.
func (iv *Interval) Contains(theta []float64, tol float64) bool {
	return len(theta) == 1 && theta[0] >= iv.lo-tol && theta[0] <= iv.hi+tol
}

// Diameter returns hi − lo.
func (iv *Interval) Diameter() float64 { return iv.hi - iv.lo }

// Center returns the midpoint.
func (iv *Interval) Center() []float64 { return []float64{(iv.lo + iv.hi) / 2} }

// String describes the interval.
func (iv *Interval) String() string { return fmt.Sprintf("Interval[%g, %g]", iv.lo, iv.hi) }

// MinimizeLinear returns the endpoint minimizing dir·θ.
func (iv *Interval) MinimizeLinear(dir []float64) []float64 {
	if dir[0] > 0 {
		return []float64{iv.lo}
	}
	return []float64{iv.hi}
}
