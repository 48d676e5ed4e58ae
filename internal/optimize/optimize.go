// Package optimize provides deterministic convex solvers over public
// histograms.
//
// Paper Figure 3 repeatedly computes θ̂t = argmin_θ ℓ(θ; D̂t) where D̂t is
// the *public* hypothesis histogram. This step has no privacy cost, so a
// plain projected-subgradient method suffices. How its accuracy tolerance
// enters Claim 3.6's α/4 progress bound is not yet written down. For
// σ-strongly convex objectives the solver switches to the 1/(σt) step
// schedule with suffix averaging, which converges markedly faster.
//
// Cost model. Every solver sweeps the universe once per iterate: one
// convex.Sweep, built once per solve, returns the iterate's value (for
// the best-iterate check) and its gradient (for the next step) together,
// the value bit-identical to an EvalOn sweep. A Minimize solve therefore
// costs Iters+2 sweeps (the start point, one per iterate, the averaged
// iterate). The sweep object and the step buffer are reused across
// iterates, so an iterate allocates at most once: the fresh slice
// Domain.Project returns.
package optimize

import (
	"fmt"
	"math"

	"repro/internal/convex"
	"repro/internal/histogram"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// Options configures Minimize. The zero value picks sensible defaults.
type Options struct {
	// MaxIters bounds the number of projected-gradient iterations.
	// Default 600.
	MaxIters int
	// Tol stops early when the projected-gradient step moves θ by less
	// than Tol in L2. Default 1e-8.
	Tol float64
	// Init is the starting point; Domain().Center() when nil.
	Init []float64
	// Engine evaluates the per-iteration population values and gradients
	// chunk-parallel over the universe; nil runs serially. Results are
	// identical either way (xeval's reductions are worker-count
	// deterministic).
	Engine *xeval.Engine
}

// Result reports the solver outcome.
type Result struct {
	// Theta is the (approximate) minimizer, inside the domain.
	Theta []float64
	// Value is the objective at Theta.
	Value float64
	// Iters is the number of iterations performed.
	Iters int
	// Converged reports whether the Tol criterion triggered before
	// MaxIters.
	Converged bool
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 600
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	return o
}

// Minimize approximately solves argmin_θ ℓ(θ; h) over the loss's domain
// with projected (sub)gradient descent and Polyak–Ruppert averaging. The
// histogram is treated as public: no noise is added.
func Minimize(l convex.Loss, h *histogram.Histogram, opts Options) (Result, error) {
	opts = opts.withDefaults()
	// Fast path: losses with closed-form minimizers (linear queries,
	// linear forms) skip the iterative solver entirely.
	if es, ok := l.(convex.ExactSolvable); ok {
		if theta := es.ExactMinimize(h); theta != nil {
			return Result{
				Theta:     theta,
				Value:     convex.EvalOn(opts.Engine, l, theta, h),
				Iters:     0,
				Converged: true,
			}, nil
		}
	}
	dom := l.Domain()
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

	lip := l.Lipschitz()
	if lip <= 0 {
		lip = 1
	}
	sigma := l.StrongConvexity()
	diam := dom.Diameter()

	sw := convex.NewSweep(opts.Engine, l, h)
	grad := make([]float64, d)
	stepBuf := make([]float64, d)
	best := vecmath.Copy(theta)
	bestVal := sw.ValueGrad(grad, theta)
	avg := vecmath.Copy(theta)
	var avgCount float64 = 1

	converged := false
	iters := 0
	for t := 1; t <= opts.MaxIters; t++ {
		iters = t
		var step float64
		if sigma > 0 {
			step = 1 / (sigma * float64(t))
		} else {
			// Classic D/(L√t) schedule for Lipschitz convex objectives.
			step = diam / (lip * math.Sqrt(float64(t)))
		}
		copy(stepBuf, theta)
		next := dom.Project(vecmath.AddScaled(stepBuf, -step, grad))
		moved := vecmath.Dist2(next, theta)
		theta = next

		// Running average (uniform) — the object with the textbook
		// convergence guarantee for subgradient methods.
		avgCount++
		for i := range avg {
			avg[i] += (theta[i] - avg[i]) / avgCount
		}

		if v := sw.ValueGrad(grad, theta); v < bestVal {
			bestVal = v
			copy(best, theta)
		}
		if moved < opts.Tol {
			converged = true
			break
		}
	}

	// The averaged iterate sometimes beats the best raw iterate; keep
	// whichever has the lower objective.
	avgProj := dom.Project(avg)
	if v := convex.EvalOn(opts.Engine, l, avgProj, h); v < bestVal {
		bestVal = v
		best = avgProj
	}
	return Result{Theta: best, Value: bestVal, Iters: iters, Converged: converged}, nil
}

// MinValue returns min_θ ℓ(θ; h) via Minimize, for error computations
// err_ℓ(D, θ̂) = ℓ(θ̂; D) − min_θ ℓ(θ; D) (paper Def 2.2).
func MinValue(l convex.Loss, h *histogram.Histogram, opts Options) (float64, error) {
	res, err := Minimize(l, h, opts)
	if err != nil {
		return 0, err
	}
	return res.Value, nil
}

// Excess returns err_ℓ(h, θ̂) = ℓ(θ̂; h) − min_θ ℓ(θ; h), the excess
// empirical risk of answer θ̂ on histogram h (paper Def 2.2). Values are
// clamped at 0 from below to absorb solver slack on the min term.
func Excess(l convex.Loss, theta []float64, h *histogram.Histogram, opts Options) (float64, error) {
	mv, err := MinValue(l, h, opts)
	if err != nil {
		return 0, err
	}
	e := convex.EvalOn(opts.Engine, l, theta, h) - mv
	if e < 0 {
		return 0, nil
	}
	return e, nil
}
