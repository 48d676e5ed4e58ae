package mech

import (
	"fmt"
	"math"
)

// Zero-concentrated differential privacy (zCDP, Bun–Steinke 2016) gives a
// tighter composition calculus than Theorem 3.10 for Gaussian-noise
// mechanisms — the noise our gradient-descent oracles add. The paper
// predates zCDP and uses DRV10 strong composition; we provide both so the
// composition experiment can show the gap, and so deployments of the
// oracles can account more tightly (the "zcdp" accountant).
//
//   - a Gaussian mechanism with L2 sensitivity Δ and noise σ satisfies
//     ρ-zCDP with ρ = Δ²/(2σ²);
//   - ρ values add under (adaptive) composition;
//   - ρ-zCDP implies (ρ + 2·√(ρ·ln(1/δ)), δ)-DP for every δ > 0.

// RhoToDP converts a zCDP guarantee to an (ε, δ)-DP guarantee.
func RhoToDP(rho, delta float64) (Params, error) {
	if rho < 0 {
		return Params{}, fmt.Errorf("mech: negative rho %v", rho)
	}
	if delta <= 0 || delta >= 1 {
		return Params{}, fmt.Errorf("mech: delta %v must be in (0, 1)", delta)
	}
	return Params{Eps: rho + 2*math.Sqrt(rho*math.Log(1/delta)), Delta: delta}, nil
}
