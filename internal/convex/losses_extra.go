package convex

import "fmt"

// Pinball is the smoothed quantile-regression loss: the pinball (check)
// profile at quantile level τ, Huber-smoothed in a window of width `smooth`
// around the kink so gradients exist everywhere:
//
//	ρ_τ(r) = τ·r          for r ≥ smooth
//	       = (τ−1)·r      for r ≤ −smooth
//	       = quadratic interpolation in between (matching value and slope)
//
// applied to the residual r = ⟨θ, feat(x)⟩ − y and normalized to be
// 1-Lipschitz. Quantile regression is a standard member of the Lipschitz
// CM-query family the paper targets.
type Pinball struct {
	glm
	tau    float64
	smooth float64
	c      float64
}

// NewPinball constructs a smoothed pinball loss at quantile τ ∈ (0, 1).
func NewPinball(name string, dom Domain, tau, smooth, featBound float64) (*Pinball, error) {
	if tau <= 0 || tau >= 1 {
		return nil, fmt.Errorf("convex: quantile level %v must be in (0,1)", tau)
	}
	if smooth <= 0 || featBound <= 0 {
		return nil, fmt.Errorf("convex: pinball smoothing and featBound must be positive")
	}
	// |ρ′| ≤ max(τ, 1−τ) ≤ 1, so sup‖∇‖ ≤ featBound for c = 1.
	l := &Pinball{tau: tau, smooth: smooth, c: 1 / featBound}
	l.glm = glm{name: name, dom: dom, profile: l.Scalar}
	return l, nil
}

// Scalar returns the smoothed pinball profile and its derivative at
// residual z − y.
func (l *Pinball) Scalar(z, y float64) (float64, float64) {
	r := z - y
	s := l.smooth
	tau := l.tau
	switch {
	case r >= s:
		return l.c * (tau * r), l.c * tau
	case r <= -s:
		return l.c * ((tau - 1) * r), l.c * (tau - 1)
	default:
		// Quadratic bridge g(r) = a·r² + b·r with g′(±s) matching the
		// linear slopes: g′(r) = ((τ−(τ−1))/(2s))·r + (τ+(τ−1))/2.
		a := 1 / (4 * s) // (τ − (τ−1)) / (4s)
		b := (2*tau - 1) / 2
		return l.c * (a*r*r + b*r + s/4), l.c * (2*a*r + b)
	}
}
