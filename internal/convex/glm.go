package convex

import (
	"repro/internal/universe"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// glm is the body the five generalized-linear loss families share (paper
// §4.2.2). Every one of them has the shape
//
//	ℓ(θ; x) = profile(⟨θ, feat(x)⟩, y(x)),   ∇ℓ = profile′ · feat(x),
//
// where feat(x) = x[:d] with d = Domain().Dim() and the label rule y(x) is
// ⟨target, x⟩ when a target is set (squared regression of an attribute),
// otherwise the record's last coordinate. A family embeds glm, keeps only
// its parameters and its Scalar profile, and hands that profile to the body
// at construction; Name, Domain, Lipschitz, StrongConvexity, Label, Value,
// Grad and the four batch kernels are defined here once.
//
// Every family normalizes its profile so that |profile′|·‖feat(x)‖ ≤ 1 over
// Θ × X for the label Label(x) returns: the body certifies Lipschitz 1 and
// StrongConvexity 0 (a single record's features are rank one).
type glm struct {
	name    string
	dom     Domain
	target  []float64 // nil: the label is the last coordinate
	profile func(z, y float64) (value, deriv float64)
}

// Name returns the instance name.
func (g *glm) Name() string { return g.name }

// Domain returns Θ.
func (g *glm) Domain() Domain { return g.dom }

// Lipschitz returns 1: every family normalizes its profile to it.
func (g *glm) Lipschitz() float64 { return 1 }

// StrongConvexity returns 0.
func (g *glm) StrongConvexity() float64 { return 0 }

// Label returns the profile's second argument for record x: ⟨target, x⟩
// when the loss has a target, otherwise x's last coordinate.
func (g *glm) Label(x []float64) float64 {
	if g.target != nil {
		return vecmath.Dot(g.target, x)
	}
	return x[len(x)-1]
}

// predict returns z = ⟨θ, feat(x)⟩.
func predict(theta, x []float64, d int) float64 {
	var z float64
	for j := 0; j < d; j++ {
		z += theta[j] * x[j]
	}
	return z
}

// Value returns profile(⟨θ, feat(x)⟩, Label(x)).
func (g *glm) Value(theta, x []float64) float64 {
	v, _ := g.profile(predict(theta, x, g.dom.Dim()), g.Label(x))
	return v
}

// Grad writes profile′ · feat(x).
func (g *glm) Grad(grad, theta, x []float64) {
	d := g.dom.Dim()
	_, dv := g.profile(predict(theta, x, d), g.Label(x))
	for j := 0; j < d; j++ {
		grad[j] = dv * x[j]
	}
}

// EvalBatch implements Loss.
func (g *glm) EvalBatch(out, theta []float64, u universe.Universe, lo, hi int) {
	d := g.dom.Dim()
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		x := pts[k*dim : (k+1)*dim : (k+1)*dim]
		out[k], _ = g.profile(predict(theta, x, d), g.Label(x))
	}
	release()
}

// GradBatch implements Loss.
func (g *glm) GradBatch(grad, theta, w []float64, u universe.Universe, lo, hi int) {
	d := g.dom.Dim()
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		wi := w[k]
		if wi == 0 {
			continue
		}
		x := pts[k*dim : (k+1)*dim : (k+1)*dim]
		_, dv := g.profile(predict(theta, x, d), g.Label(x))
		f := wi * dv
		for j := 0; j < d; j++ {
			grad[j] += f * x[j]
		}
	}
	release()
}

// ValueGradBatch implements Loss: one profile call per nonzero
// weight yields both the value and the derivative, so a family with a
// costly profile (logistic's exp/log1p) pays for it once.
func (g *glm) ValueGradBatch(out, grad, theta, w []float64, u universe.Universe, lo, hi int) {
	d := g.dom.Dim()
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		wi := w[k]
		if wi == 0 {
			continue
		}
		x := pts[k*dim : (k+1)*dim : (k+1)*dim]
		v, dv := g.profile(predict(theta, x, d), g.Label(x))
		out[k] = v
		f := wi * dv
		for j := 0; j < d; j++ {
			grad[j] += f * x[j]
		}
	}
	release()
}

// DirGradBatch implements Loss.
func (g *glm) DirGradBatch(out, dir, theta []float64, u universe.Universe, lo, hi int) {
	d := g.dom.Dim()
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		x := pts[k*dim : (k+1)*dim : (k+1)*dim]
		var z, dz float64
		for j := 0; j < d; j++ {
			z += theta[j] * x[j]
			dz += dir[j] * x[j]
		}
		_, dv := g.profile(z, g.Label(x))
		out[k] = dv * dz
	}
	release()
}

// Compile-time GLM conformance checks.
var (
	_ GLM = (*Squared)(nil)
	_ GLM = (*Logistic)(nil)
	_ GLM = (*SmoothedHinge)(nil)
	_ GLM = (*Huber)(nil)
	_ GLM = (*Pinball)(nil)
)
