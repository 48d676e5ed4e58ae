package erm

import (
	"math"
	"testing"

	"repro/internal/convex"
)

func lossInDim(t *testing.T, d int, sigma float64) convex.Loss {
	t.Helper()
	ball, err := convex.NewL2Ball(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]float64, d+1)
	target[d] = 1
	sq, err := convex.NewSquared("sq", ball, target, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sigma <= 0 {
		return sq
	}
	rg, err := convex.NewRegularized(sq, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return rg
}

// Table 1 column "n needed for a single query": the oracle shapes must
// scale the way the cited theorems say.
func TestMinNShapes(t *testing.T) {
	alpha, eps := 0.1, 1.0
	l4 := lossInDim(t, 4, 0)
	l16 := lossInDim(t, 16, 0)

	// Theorem 4.1: √d scaling for the generic oracle.
	r := float64(NoisyGD{}.MinN(l16, alpha, eps)) / float64(NoisyGD{}.MinN(l4, alpha, eps))
	if math.Abs(r-2) > 0.1 {
		t.Errorf("NoisyGD d-scaling = %v, want 2 (√(16/4))", r)
	}

	// Theorem 4.3: no d dependence for the GLM oracle.
	if (GLMReduction{}).MinN(l16, alpha, eps) != (GLMReduction{}.MinN(l4, alpha, eps)) {
		t.Error("GLMReduction MinN depends on d")
	}
	// 1/α² scaling.
	r = float64(GLMReduction{}.MinN(l4, alpha/2, eps)) / float64(GLMReduction{}.MinN(l4, alpha, eps))
	if math.Abs(r-4) > 0.2 {
		t.Errorf("GLMReduction α-scaling = %v, want 4", r)
	}

	// Theorem 4.5: 1/√σ improvement for strong convexity.
	weak := lossInDim(t, 4, 0.25)
	strong := lossInDim(t, 4, 4.0)
	r = float64(OutputPerturbation{}.MinN(weak, alpha, eps)) / float64(OutputPerturbation{}.MinN(strong, alpha, eps))
	if math.Abs(r-4) > 0.3 {
		t.Errorf("OutputPerturbation σ-scaling = %v, want 4 (√(4/0.25))", r)
	}
	// σ ≤ 0 falls back to the generic shape.
	if (OutputPerturbation{}).MinN(l4, alpha, eps) != (NoisyGD{}.MinN(l4, alpha, eps)) {
		t.Error("σ=0 fallback wrong")
	}

	// Linear oracle: 1/(√α·ε). Use a small α so integer ceiling effects
	// do not mask the ratio.
	aSmall := 1e-3
	r = float64(LaplaceLinear{}.MinN(l4, aSmall/4, eps)) / float64(LaplaceLinear{}.MinN(l4, aSmall, eps))
	if math.Abs(r-2) > 0.2 {
		t.Errorf("LaplaceLinear α-scaling = %v, want 2", r)
	}

	// Net mechanism grows linearly in d.
	r = float64(NetExpMech{}.MinN(l16, alpha, eps)) / float64(NetExpMech{}.MinN(l4, alpha, eps))
	if math.Abs(r-4) > 0.3 {
		t.Errorf("NetExpMech d-scaling = %v, want 4", r)
	}
}

// All shapes scale as 1/ε and are ≥ 1 even at degenerate inputs.
func TestMinNEpsilonScalingAndFloors(t *testing.T) {
	l := lossInDim(t, 4, 0.5)
	oracles := []SampleComplexity{
		NoisyGD{}, OutputPerturbation{}, GLMReduction{}, LaplaceLinear{},
		NetExpMech{},
	}
	for _, o := range oracles {
		a := o.MinN(l, 0.1, 0.5)
		b := o.MinN(l, 0.1, 1.0)
		if a < b {
			t.Errorf("%T: smaller ε did not need more data (%d vs %d)", o, a, b)
		}
		if o.MinN(l, 1e9, 1e9) < 1 {
			t.Errorf("%T: MinN below 1", o)
		}
		if o.MinN(l, 0, 0) < 1 { // degenerate inputs clamp, never panic
			t.Errorf("%T: degenerate input broke floor", o)
		}
	}
}
