package erm

import (
	"math"

	"repro/internal/convex"
)

// SampleComplexity is implemented by oracles that can state their Table-1
// single-query sample requirement: the smallest n at which Answer is
// expected to be α-accurate at privacy ε (with δ polylog factors and
// absolute constants dropped — these are the Õ(·) *shapes* of paper
// Theorems 4.1/4.3/4.5, not calibrated constants; experiments measure the
// true constants empirically).
type SampleComplexity interface {
	// MinN returns the Õ-shape sample requirement for the loss at
	// accuracy alpha and privacy eps.
	MinN(l convex.Loss, alpha, eps float64) int
}

func ceilPos(v float64) int {
	if v < 1 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	return int(math.Ceil(v))
}

// MinN implements Theorem 4.1's shape for the generic Lipschitz oracle:
// n = Õ(√d / (α·ε)).
func (NoisyGD) MinN(l convex.Loss, alpha, eps float64) int {
	d := float64(l.Domain().Dim())
	return ceilPos(math.Sqrt(d) / (alpha * eps))
}

// MinN implements Theorem 4.5's shape for the strongly convex oracle:
// n = Õ(√d / (√σ·α·ε)). Losses without strong convexity get the generic
// shape (σ treated as 1).
func (OutputPerturbation) MinN(l convex.Loss, alpha, eps float64) int {
	d := float64(l.Domain().Dim())
	sigma := l.StrongConvexity()
	if sigma <= 0 {
		sigma = 1
	}
	return ceilPos(math.Sqrt(d) / (math.Sqrt(sigma) * alpha * eps))
}

// MinN implements Theorem 4.3's shape for unconstrained GLMs:
// n = Õ(1 / (α²·ε)) — independent of the ambient dimension.
func (GLMReduction) MinN(_ convex.Loss, alpha, eps float64) int {
	return ceilPos(1 / (alpha * alpha * eps))
}

// MinN for the linear-query oracle: an excess-risk target α corresponds
// to answer accuracy √(2α) (quadratic embedding), and the Laplace
// mechanism needs n = O(1/(a·ε)) for answer accuracy a.
func (LaplaceLinear) MinN(_ convex.Loss, alpha, eps float64) int {
	return ceilPos(1 / (math.Sqrt(2*alpha) * eps))
}

// MinN for the net exponential mechanism: the net must be α-fine
// (Ω(α^{-d}) candidates) and the mechanism pays log(net size)/(α·ε), so
// n = Õ(d·log(1/α)/(α·ε)).
func (NetExpMech) MinN(l convex.Loss, alpha, eps float64) int {
	d := float64(l.Domain().Dim())
	return ceilPos(d * math.Log(1/alpha) / (alpha * eps))
}

// Compile-time conformance checks.
var (
	_ SampleComplexity = NoisyGD{}
	_ SampleComplexity = OutputPerturbation{}
	_ SampleComplexity = GLMReduction{}
	_ SampleComplexity = LaplaceLinear{}
	_ SampleComplexity = NetExpMech{}
)
