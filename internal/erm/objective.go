package erm

import (
	"fmt"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/mech"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/vecmath"
)

// ObjectivePerturbation is the second classical single-query oracle of
// Chaudhuri–Monteleoni–Sarwate / Kifer–Smith–Thakurta: instead of noising
// the *output*, perturb the *objective* with a random linear term and
// release the exact minimizer of the perturbed problem,
//
//	θ̃ = argmin_{θ∈Θ}  ℓ(θ; D) + ⟨b, θ⟩/n,    b ~ N(0, σ_b²·I).
//
// For σ-strongly convex, L-Lipschitz losses the released minimizer's
// sensitivity analysis reduces to the linear term: replacing one row
// shifts the perturbed objective's gradient by at most 2L/n everywhere, so
// calibrating b's scale to that sensitivity via the Gaussian mechanism
// (σ_b = 2L·√(2 ln(1.25/δ))/ε) gives (ε, δ)-DP. Objective perturbation
// often beats output perturbation in practice because the noise interacts
// with the objective's curvature instead of being added raw.
type ObjectivePerturbation struct{}

// Name implements Oracle.
func (o ObjectivePerturbation) Name() string { return "objperturb" }

// perturbed wraps a loss with the linear tilt ⟨b, θ⟩ (already divided
// by n).
type perturbed struct {
	convex.Loss
	b []float64
}

func (p perturbed) Value(theta, x []float64) float64 {
	return p.Loss.Value(theta, x) + vecmath.Dot(p.b, theta)
}

func (p perturbed) Grad(grad, theta, x []float64) {
	p.Loss.Grad(grad, theta, x)
	for i := range p.b {
		grad[i] += p.b[i]
	}
}

// Lipschitz accounts for the tilt.
func (p perturbed) Lipschitz() float64 {
	return p.Loss.Lipschitz() + vecmath.Norm2(p.b)
}

// Answer implements Oracle. It requires strong convexity (the regime in
// which this simple calibration is valid) and delta > 0.
func (o ObjectivePerturbation) Answer(src *sample.Source, l convex.Loss, data *dataset.Dataset, eps, delta float64) ([]float64, error) {
	if l.StrongConvexity() <= 0 {
		return nil, fmt.Errorf("erm: ObjectivePerturbation requires a strongly convex loss")
	}
	if delta == 0 {
		return nil, fmt.Errorf("erm: ObjectivePerturbation requires delta > 0")
	}
	sigmaB, err := mech.GaussianSigma(2*l.Lipschitz(), eps, delta)
	if err != nil {
		return nil, err
	}
	d := l.Domain().Dim()
	n := float64(data.N())
	b := make([]float64, d)
	for i := range b {
		b[i] = src.Gaussian(0, sigmaB) / n
	}
	if err := ensureDenseData(o.Name(), data); err != nil {
		return nil, err
	}
	res, err := optimize.Minimize(perturbed{Loss: l, b: b}, data.Histogram(), optimize.Options{MaxIters: solverIters})
	if err != nil {
		return nil, err
	}
	return l.Domain().Project(res.Theta), nil
}
