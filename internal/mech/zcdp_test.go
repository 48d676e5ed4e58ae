package mech

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestGaussianRho(t *testing.T) {
	// Δ=1, σ=2 → ρ = 1/8.
	rho, err := GaussianRho(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-0.125) > 1e-15 {
		t.Errorf("rho = %v", rho)
	}
	if _, err := GaussianRho(-1, 1); err == nil {
		t.Error("negative sensitivity accepted")
	}
	if _, err := GaussianRho(1, 0); err == nil {
		t.Error("sigma=0 accepted")
	}
}

func TestRhoToDPHandChecked(t *testing.T) {
	// ρ = 0.1, δ = 1e-6 → ε = 0.1 + 2√(0.1·ln 1e6).
	p, err := RhoToDP(0.1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1 + 2*math.Sqrt(0.1*math.Log(1e6))
	if math.Abs(p.Eps-want) > 1e-12 {
		t.Errorf("eps = %v, want %v", p.Eps, want)
	}
	if p.Delta != 1e-6 {
		t.Errorf("delta = %v", p.Delta)
	}
	if _, err := RhoToDP(-0.1, 1e-6); err == nil {
		t.Error("negative rho accepted")
	}
	if _, err := RhoToDP(0.1, 0); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := RhoToDP(0.1, 1); err == nil {
		t.Error("delta=1 accepted")
	}
}

// For a homogeneous chain of T Gaussian mechanisms each calibrated by the
// classical bound at (ε₀, δ₀), the zCDP total must be at least as tight as
// DRV10 strong composition once T is large — zCDP's advantage is the point
// of including it.
func TestZCDPTighterThanDRV10ForLongGaussianChains(t *testing.T) {
	T := 500
	eps0, delta0 := 0.01, 1e-9
	sigma, err := GaussianSigma(1, eps0, delta0)
	if err != nil {
		t.Fatal(err)
	}
	rho, err := GaussianRho(1, sigma)
	if err != nil {
		t.Fatal(err)
	}
	// No reservation: the whole δ = 1e-6 goes to the one ρ→DP conversion.
	a, err := NewAccountant("zcdp", Params{Eps: 100, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < T; i++ {
		if err := a.Spend(Cost{Eps: eps0, Delta: delta0, Rho: rho}); err != nil {
			t.Fatal(err)
		}
	}
	zc := a.Total()
	drv, err := AdvancedComposition(eps0, delta0, T, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if zc.Eps >= drv.Eps {
		t.Errorf("zCDP (%v) not tighter than DRV10 (%v) for T=%d Gaussians", zc.Eps, drv.Eps, T)
	}
}

// zCDP composition is additive: combining two accountants equals one
// accountant with all spends.
func TestZCDPAdditivity(t *testing.T) {
	f := func(rawA, rawB float64) bool {
		ra := math.Abs(math.Mod(rawA, 10))
		rb := math.Abs(math.Mod(rawB, 10))
		var acct [3]Accountant
		for i := range acct {
			a, err := NewAccountant("zcdp", Params{Eps: 1, Delta: 1e-6})
			if err != nil {
				t.Fatal(err)
			}
			acct[i] = a
		}
		a, b, c := acct[0], acct[1], acct[2]
		if a.Spend(Cost{Rho: ra}) != nil || b.Spend(Cost{Rho: rb}) != nil {
			return true
		}
		if c.Spend(Cost{Rho: ra}) != nil || c.Spend(Cost{Rho: rb}) != nil {
			return true
		}
		return math.Abs(a.Export().Rho+b.Export().Rho-c.Export().Rho) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// GaussianRho returns the zCDP parameter of a Gaussian mechanism. It has
// no caller outside the tests in this file.
func GaussianRho(sensitivity, sigma float64) (float64, error) {
	if sensitivity < 0 {
		return 0, fmt.Errorf("mech: negative sensitivity %v", sensitivity)
	}
	if sigma <= 0 {
		return 0, fmt.Errorf("mech: sigma %v must be positive", sigma)
	}
	return sensitivity * sensitivity / (2 * sigma * sigma), nil
}
