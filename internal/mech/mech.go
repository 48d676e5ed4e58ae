// Package mech implements the differential-privacy primitives the paper
// builds on: the Laplace and Gaussian mechanisms, the exponential mechanism
// of McSherry–Talwar (used by PMW to select maximally-inaccurate queries),
// report-noisy-max, and the composition calculus — basic composition and the
// strong composition theorem of Dwork–Rothblum–Vadhan (paper Theorem 3.10),
// including the paper's ε₀/δ₀ budget-splitting schedule.
package mech

import (
	"fmt"
	"math"

	"repro/internal/sample"
)

// Params is an (ε, δ) differential-privacy guarantee.
type Params struct {
	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta"`
}

// Validate rejects non-positive ε and δ outside [0, 1).
func (p Params) Validate() error {
	if p.Eps <= 0 || math.IsNaN(p.Eps) || math.IsInf(p.Eps, 0) {
		return fmt.Errorf("mech: epsilon %v must be positive and finite", p.Eps)
	}
	if p.Delta < 0 || p.Delta >= 1 || math.IsNaN(p.Delta) {
		return fmt.Errorf("mech: delta %v must be in [0, 1)", p.Delta)
	}
	return nil
}

// Laplace releases value + Lap(sensitivity/eps), the (ε, 0)-DP Laplace
// mechanism of Dwork–McSherry–Nissim–Smith for a query of the given L1
// sensitivity.
func Laplace(src *sample.Source, value, sensitivity, eps float64) (float64, error) {
	if sensitivity < 0 {
		return 0, fmt.Errorf("mech: negative sensitivity %v", sensitivity)
	}
	if err := (Params{Eps: eps}).Validate(); err != nil {
		return 0, err
	}
	return value + src.Laplace(sensitivity/eps), nil
}

// GaussianSigma returns the noise standard deviation of the classical
// (ε, δ)-DP Gaussian mechanism: σ = sensitivity·√(2 ln(1.25/δ))/ε.
// Requires δ > 0 and ε ≤ 1 (the regime where the classical bound is valid).
func GaussianSigma(sensitivity, eps, delta float64) (float64, error) {
	if sensitivity < 0 {
		return 0, fmt.Errorf("mech: negative sensitivity %v", sensitivity)
	}
	if err := (Params{Eps: eps, Delta: delta}).Validate(); err != nil {
		return 0, err
	}
	if delta == 0 {
		return 0, fmt.Errorf("mech: gaussian mechanism requires delta > 0")
	}
	if eps > 1 {
		return 0, fmt.Errorf("mech: classical gaussian bound requires eps ≤ 1, got %v", eps)
	}
	return sensitivity * math.Sqrt(2*math.Log(1.25/delta)) / eps, nil
}

// Exponential samples an index with probability ∝ exp(ε·scoreᵢ/(2·sens)),
// the exponential mechanism for a score function of the given sensitivity.
// Sampling uses the Gumbel-max trick, which is exact and avoids normalizing
// potentially huge exponentials.
func Exponential(src *sample.Source, scores []float64, sens, eps float64) (int, error) {
	if len(scores) == 0 {
		return 0, fmt.Errorf("mech: no candidates")
	}
	if sens <= 0 {
		return 0, fmt.Errorf("mech: score sensitivity %v must be positive", sens)
	}
	if err := (Params{Eps: eps}).Validate(); err != nil {
		return 0, err
	}
	beta := 2 * sens / eps
	best := math.Inf(-1)
	bestIdx := 0
	for i, s := range scores {
		if v := s + src.Gumbel(beta); v > best {
			best = v
			bestIdx = i
		}
	}
	return bestIdx, nil
}

// BasicComposition returns the privacy of running T mechanisms that are each
// (ε₀, δ₀)-DP: parameters add up.
func BasicComposition(eps0, delta0 float64, T int) Params {
	return Params{Eps: float64(T) * eps0, Delta: float64(T) * delta0}
}

// AdvancedComposition returns the strong-composition guarantee of paper
// Theorem 3.10 (Dwork–Rothblum–Vadhan): a T-fold adaptive composition of
// (ε₀, δ₀)-DP mechanisms is (ε, δ′ + T·δ₀)-DP with
//
//	ε = √(2T·ln(1/δ′))·ε₀ + 2T·ε₀².
func AdvancedComposition(eps0, delta0 float64, T int, deltaPrime float64) (Params, error) {
	if T < 1 {
		return Params{}, fmt.Errorf("mech: composition length %d < 1", T)
	}
	if deltaPrime <= 0 || deltaPrime >= 1 {
		return Params{}, fmt.Errorf("mech: delta' %v must be in (0, 1)", deltaPrime)
	}
	if eps0 < 0 || delta0 < 0 {
		return Params{}, fmt.Errorf("mech: negative per-mechanism parameters")
	}
	tf := float64(T)
	eps := math.Sqrt(2*tf*math.Log(1/deltaPrime))*eps0 + 2*tf*eps0*eps0
	return Params{Eps: eps, Delta: deltaPrime + tf*delta0}, nil
}

// SplitBudget returns the per-mechanism (ε₀, δ₀) schedule the paper uses
// inside Theorem 3.10's "in particular" clause:
//
//	ε₀ = ε / √(8T·ln(2/δ)),   δ₀ = δ / (2T),
//
// which guarantees the T-fold composition is (ε, δ)-DP for ε ≤ 1.
func SplitBudget(eps, delta float64, T int) (eps0, delta0 float64, err error) {
	if err := (Params{Eps: eps, Delta: delta}).Validate(); err != nil {
		return 0, 0, err
	}
	if delta == 0 {
		return 0, 0, fmt.Errorf("mech: budget splitting requires delta > 0")
	}
	if T < 1 {
		return 0, 0, fmt.Errorf("mech: composition length %d < 1", T)
	}
	tf := float64(T)
	return eps / math.Sqrt(8*tf*math.Log(2/delta)), delta / (2 * tf), nil
}
