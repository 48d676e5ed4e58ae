package erm

import (
	"fmt"
	"testing"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/mech"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/vecmath"
)

func TestObjectivePerturbationValidation(t *testing.T) {
	sq := squaredLoss(t)
	fx := makeFixture(t, 200, 60)
	src := sample.New(1)
	if _, err := (ObjectivePerturbation{}).Answer(src, sq, fx.data, 1, 1e-6); err == nil {
		t.Error("non-strongly-convex loss accepted")
	}
	rg, err := convex.NewRegularized(sq, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (ObjectivePerturbation{}).Answer(src, rg, fx.data, 1, 0); err == nil {
		t.Error("delta=0 accepted")
	}
}

func TestObjectivePerturbationAccuracy(t *testing.T) {
	sq := squaredLoss(t)
	rg, err := convex.NewRegularized(sq, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fx := makeFixture(t, 4000, 61)
	var worst float64
	for trial := 0; trial < 5; trial++ {
		src := sample.New(int64(400 + trial))
		theta, err := (ObjectivePerturbation{}).Answer(src, rg, fx.data, 1, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if !rg.Domain().Contains(theta, 1e-6) {
			t.Fatalf("answer outside domain: %v", theta)
		}
		if e := excess(t, rg, theta, fx); e > worst {
			worst = e
		}
	}
	if worst > 0.05 {
		t.Errorf("worst excess = %v", worst)
	}
}

// At tiny n, objective perturbation's noise must visibly bite (same guard
// as for the other oracles: a noiseless implementation would match the
// exact minimizer).
func TestObjectivePerturbationNoiseBites(t *testing.T) {
	sq := squaredLoss(t)
	rg, err := convex.NewRegularized(sq, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fx := makeFixture(t, 25, 62)
	np := NonPrivate{}
	thetaNP, err := np.Answer(sample.New(1), rg, fx.data, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseline := excess(t, rg, thetaNP, fx)
	var total float64
	trials := 10
	for i := 0; i < trials; i++ {
		src := sample.New(int64(500 + i))
		theta, err := (ObjectivePerturbation{}).Answer(src, rg, fx.data, 0.2, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		total += excess(t, rg, theta, fx)
	}
	if avg := total / float64(trials); avg <= baseline+1e-9 {
		t.Errorf("objective perturbation at n=25 matched non-private (%v vs %v)", avg, baseline)
	}
}

// Objective and output perturbation answer the same strongly convex query
// in the same accuracy regime (within an order of magnitude) — the paper's
// §4.2.3 treats them interchangeably as "the strongly convex oracle".
func TestObjectiveVsOutputPerturbation(t *testing.T) {
	sq := squaredLoss(t)
	rg, err := convex.NewRegularized(sq, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fx := makeFixture(t, 1500, 63)
	avg := func(o Oracle) float64 {
		var total float64
		trials := 8
		for i := 0; i < trials; i++ {
			src := sample.New(int64(600 + i))
			theta, err := o.Answer(src, rg, fx.data, 0.5, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			total += excess(t, rg, theta, fx)
		}
		return total / float64(trials)
	}
	obj := avg(ObjectivePerturbation{})
	out := avg(OutputPerturbation{})
	if obj > 10*out+0.01 || out > 10*obj+0.01 {
		t.Errorf("oracles in different regimes: objective %v, output %v", obj, out)
	}
}

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
// with the objective's curvature instead of being added raw. No program
// path offers it: the tests in this file are its only callers.
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

// MinN for objective perturbation matches the strongly convex shape.
func (ObjectivePerturbation) MinN(l convex.Loss, alpha, eps float64) int {
	return OutputPerturbation{}.MinN(l, alpha, eps)
}
