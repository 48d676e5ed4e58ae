package erm

import (
	"fmt"
	"math"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/mech"
	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// GLMReduction is the dimension-independent oracle for unconstrained
// generalized linear models, in the spirit of Jain–Thakurta (paper §4.2.2,
// Theorem 4.3).
//
// A GLM's empirical objective depends on θ only through the inner products
// ⟨θ, x_i⟩, so its geometry is effectively low-dimensional. The oracle:
//
//  1. draws a random Johnson–Lindenstrauss matrix G ∈ R^{m×d} with
//     m = ReducedDim (data-independent, so drawing it costs no privacy);
//  2. maps every universe record's features to Gx/√m, which approximately
//     preserves inner products;
//  3. runs noisy projected gradient descent on the projected GLM in R^m,
//     with each record's profile read at the loss's own label
//     (convex.GLM.Label) — the Gaussian noise now lives in m dimensions,
//     not d, which is the source of the dimension independence;
//  4. maps the solution back as θ = Gᵀθ′/√m and projects onto Θ.
//
// The privacy analysis is the same as NoisyGD's (the projection is a public
// preprocessing of the loss), and the error scales with m instead of the
// ambient d — reproducing Theorem 4.3's qualitative claim.
type GLMReduction struct {
	// ReducedDim is the projected dimension m (default 4).
	ReducedDim int
	// Iters is the number of noisy gradient steps (default 64).
	Iters int
	// Engine evaluates the projected-space population gradients
	// chunk-parallel over the universe; nil runs serially (see
	// NoisyGD.Engine for the determinism contract).
	Engine *xeval.Engine
}

// Name implements Oracle.
func (o GLMReduction) Name() string { return "glmreduce" }

// AnswerCost implements CostReporter: Iters Gaussian releases in the
// reduced space, calibrated exactly as NoisyGD's.
func (o GLMReduction) AnswerCost(eps, delta float64) mech.Cost {
	iters := o.Iters
	if iters <= 0 {
		iters = 64
	}
	return noisyGDCost(iters, eps, delta)
}

// Answer implements Oracle. The loss must implement convex.GLM and its
// domain must be an L2 ball (the unconstrained-GLM setting of §4.2.2).
// Each record's profile derivative is taken at the loss's own label
// (glm.Label), the label its Lipschitz certificate covers, so the
// sensitivity 2·Lipschitz/n bounds the reduced-space gradient too.
func (o GLMReduction) Answer(src *sample.Source, l convex.Loss, data *dataset.Dataset, eps, delta float64) ([]float64, error) {
	if err := ensureDenseData(o.Name(), data); err != nil {
		return nil, err
	}
	glm, ok := l.(convex.GLM)
	if !ok {
		return nil, fmt.Errorf("erm: GLMReduction requires a GLM loss, got %T", l)
	}
	ball, ok := l.Domain().(*convex.L2Ball)
	if !ok {
		return nil, fmt.Errorf("erm: GLMReduction requires an L2-ball domain, got %s", l.Domain())
	}
	if delta == 0 {
		return nil, fmt.Errorf("erm: GLMReduction requires delta > 0")
	}
	m := o.ReducedDim
	if m <= 0 {
		m = 4
	}
	d := ball.Dim()
	if m > d {
		m = d
	}
	iters := o.Iters
	if iters <= 0 {
		iters = 64
	}

	// JL matrix G: m×d of N(0,1) entries, scaled by 1/√m.
	g := make([][]float64, m)
	for i := range g {
		g[i] = src.GaussianVec(d, 1)
	}
	scale := 1 / math.Sqrt(float64(m))

	// Projected features for every universe element (public computation).
	// Each projection is clipped back to the original feature-norm bound:
	// without clipping, the *worst-case* projected norm over the universe
	// (which the sensitivity bound must use) exceeds the typical norm by a
	// √(log|X|/m) factor, inflating the noise and silently cancelling the
	// m-vs-d dimension advantage. Clipping is public preprocessing — the
	// loss simply operates on the clipped features.
	u := data.U
	featBound := 0.0
	buf := make([]float64, u.Dim())
	for i := 0; i < u.Size(); i++ {
		x := u.PointInto(i, buf)
		var n2 float64
		for c := 0; c < d; c++ {
			n2 += x[c] * x[c]
		}
		if n := math.Sqrt(n2); n > featBound {
			featBound = n
		}
	}
	if featBound == 0 {
		return ball.Center(), nil
	}
	proj := make([][]float64, u.Size())
	labels := make([]float64, u.Size())
	for i := 0; i < u.Size(); i++ {
		x := u.PointInto(i, buf)
		labels[i] = glm.Label(x)
		p := make([]float64, m)
		for r := 0; r < m; r++ {
			var s float64
			for c := 0; c < d; c++ {
				s += g[r][c] * x[c]
			}
			p[r] = s * scale
		}
		if n := vecmath.Norm2(p); n > featBound {
			for r := range p {
				p[r] *= featBound / n
			}
		}
		proj[i] = p
	}

	// Noisy projected gradient descent in the reduced space. The reduced
	// domain radius matches the original ball: JL approximately preserves
	// norms, and a slightly misscaled radius only perturbs accuracy, never
	// privacy.
	redBall, err := convex.NewL2Ball(m, ball.Radius())
	if err != nil {
		return nil, err
	}
	// Per-record gradient in reduced space: dv·projᵢ with |dv| bounded by
	// the original loss's profile-derivative bound. Our GLMs certify
	// ‖∇ℓ‖ ≤ Lip with ‖feat‖ ≤ featBound, i.e. |dv| ≤ Lip/featBound, and
	// clipping guarantees ‖proj‖ ≤ featBound, so the reduced Lipschitz
	// constant matches the original one.
	redLip := l.Lipschitz()

	eps0, delta0, err := mech.SplitBudget(eps, delta, iters)
	if err != nil {
		return nil, err
	}
	sens := 2 * redLip / float64(data.N())
	sigma, err := mech.GaussianSigma(sens, eps0, delta0)
	if err != nil {
		return nil, err
	}

	// The reduction is built once, before the step loop; its kernel reads
	// the loop's current theta on every sweep.
	h := data.Histogram()
	theta := redBall.Center()
	red := o.Engine.NewVecSum(u.Size(), m, func(clo, chi int, out []float64) {
		for i := clo; i < chi; i++ {
			p := h.P[i]
			if p == 0 {
				continue
			}
			_, dv := glm.Scalar(vecmath.Dot(theta, proj[i]), labels[i])
			pv := p * dv
			for r := 0; r < m; r++ {
				out[r] += pv * proj[i][r]
			}
		}
	})
	avg := vecmath.Copy(theta)
	grad := make([]float64, m)
	stepBuf := make([]float64, m)
	diam := redBall.Diameter()
	for t := 1; t <= iters; t++ {
		red.Run(grad)
		for i := range grad {
			grad[i] += src.Gaussian(0, sigma)
		}
		step := diam / (redLip * math.Sqrt(float64(t)))
		copy(stepBuf, theta)
		theta = redBall.Project(vecmath.AddScaled(stepBuf, -step, grad))
		for i := range avg {
			avg[i] += (theta[i] - avg[i]) / float64(t+1)
		}
	}

	// Map back by public post-processing. The naive adjoint Gᵀθ′/√m has
	// norm inflated by ≈ √(d/m) (GᵀG/m concentrates around I only in
	// expectation), so ball projection would shrink every prediction by
	// that factor and reintroduce a dimension dependence. Instead,
	// reconstruct the parameter that best reproduces the reduced
	// predictor's outputs z′(x) = ⟨θ′, proj(x)⟩ over the *public* universe:
	//
	//	θ = argmin_{θ∈Θ} Σ_{x∈X} (⟨θ, feat(x)⟩ − z′(x))².
	//
	// This uses only θ′ (already private) and public geometry, costs no
	// privacy, and its distortion depends on m, not d.
	targets := make([]float64, u.Size())
	for i := range targets {
		targets[i] = vecmath.Dot(avg, proj[i])
	}
	return fitBallPredictor(ball, u, targets), nil
}

// fitBallPredictor solves the public least-squares reconstruction
// min_{θ∈ball} Σ_x (⟨θ, feat(x)⟩ − target(x))² by projected gradient
// descent on the (public) normal equations.
func fitBallPredictor(ball *convex.L2Ball, u universe.Universe, targets []float64) []float64 {
	d := ball.Dim()
	n := u.Size()
	// Normal-equation pieces: A = Σ x xᵀ / n, b = Σ x·target / n.
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d)
	}
	b := make([]float64, d)
	buf := make([]float64, u.Dim())
	for i := 0; i < n; i++ {
		x := u.PointInto(i, buf)
		t := targets[i] / float64(n)
		for r := 0; r < d; r++ {
			b[r] += x[r] * t
			xr := x[r] / float64(n)
			for c := 0; c < d; c++ {
				a[r][c] += xr * x[c]
			}
		}
	}
	// Lipschitz constant of the gradient = largest eigenvalue of 2A;
	// bound it by twice the trace for a safe step size.
	var tr float64
	for r := 0; r < d; r++ {
		tr += a[r][r]
	}
	step := 1.0
	if tr > 0 {
		step = 1 / (2 * tr)
	}
	theta := ball.Center()
	grad := make([]float64, d)
	for it := 0; it < 200; it++ {
		for r := 0; r < d; r++ {
			g := -2 * b[r]
			for c := 0; c < d; c++ {
				g += 2 * a[r][c] * theta[c]
			}
			grad[r] = g
		}
		theta = ball.Project(vecmath.AddScaled(vecmath.Copy(theta), -step, grad))
	}
	return theta
}
