package optimize

import (
	"fmt"

	"repro/internal/convex"
	"repro/internal/histogram"
	"repro/internal/vecmath"
)

// FrankWolfe approximately solves argmin_θ ℓ(θ; h) with the projection-free
// conditional-gradient method: each step calls the domain's linear
// minimization oracle instead of a Euclidean projection,
//
//	s_t = argmin_{s∈Θ} ⟨∇ℓ(θ_t; h), s⟩,    θ_{t+1} = (1−γ_t)·θ_t + γ_t·s_t
//
// with the classic γ_t = 2/(t+2) schedule. It is an alternative public
// solver for the θ̂t computation of Figure 3 — useful when the domain has a
// cheap vertex oracle — and a cross-check for the projected-gradient path
// (their outputs must agree; see the tests).
func FrankWolfe(l convex.Loss, h *histogram.Histogram, opts Options) (Result, error) {
	opts = opts.withDefaults()
	dom := l.Domain()
	lmo, ok := dom.(convex.LinearMinimizer)
	if !ok {
		return Result{}, fmt.Errorf("optimize: domain %s has no linear minimization oracle", dom)
	}
	d := dom.Dim()
	theta := opts.Init
	if theta == nil {
		theta = dom.Center()
	} else {
		if len(theta) != d {
			return Result{}, fmt.Errorf("optimize: init dim %d != domain dim %d", len(theta), d)
		}
		theta = dom.Project(theta)
	}
	grad := make([]float64, d)
	best := vecmath.Copy(theta)
	bestVal := convex.ValueGradOn(opts.Engine, l, grad, theta, h)
	converged := false
	iters := 0
	for t := 0; t < opts.MaxIters; t++ {
		iters = t + 1
		s := lmo.MinimizeLinear(grad)
		// Duality gap ⟨∇, θ − s⟩ certifies optimality; stop when tiny.
		gap := vecmath.Dot(grad, vecmath.Sub(theta, s))
		if gap < opts.Tol {
			converged = true
			break
		}
		gamma := 2 / float64(t+2)
		for i := range theta {
			theta[i] = (1-gamma)*theta[i] + gamma*s[i]
		}
		if v := convex.ValueGradOn(opts.Engine, l, grad, theta, h); v < bestVal {
			bestVal = v
			copy(best, theta)
		}
	}
	return Result{Theta: best, Value: bestVal, Iters: iters, Converged: converged}, nil
}
