package convex

import (
	"fmt"
	"math"

	"repro/internal/histogram"
	"repro/internal/vecmath"
)

// Record layout convention: losses over labeled examples read a universe
// point vector as (features..., label) with len(features) = Domain().Dim().
// Losses over unlabeled records read the whole vector as the feature tuple.

// Squared is the (rescaled) squared loss of linear regression:
//
//	ℓ(θ; x) = c · (⟨θ, feat(x)⟩ − ⟨target, x⟩)²
//
// where target is a fixed direction over the full record vector. With
// target = e_label this is plain least squares "predict y from features";
// other targets express a family of distinct regression queries ("predict
// attribute ⟨target, x⟩"), which is how the experiments generate k distinct
// CM queries. The constant c is chosen at construction so the loss is
// 1-Lipschitz over Θ × X. Its GLM label is ⟨target, x⟩.
type Squared struct {
	glm
	c float64
}

// NewSquared constructs a squared loss. featBound bounds ‖feat(x)‖₂ and
// targetBound bounds |⟨target, x⟩| over the universe; both must be positive.
func NewSquared(name string, dom Domain, target []float64, featBound, targetBound float64) (*Squared, error) {
	if featBound <= 0 || targetBound <= 0 {
		return nil, fmt.Errorf("convex: squared loss bounds must be positive")
	}
	if len(target) == 0 {
		return nil, fmt.Errorf("convex: squared loss needs a target direction")
	}
	// |residual| ≤ R·featBound + targetBound with R = diam/2 for balls;
	// use the domain diameter conservatively: ‖θ‖ ≤ diam(Θ) from center 0
	// is loose but safe for any domain.
	maxResid := dom.Diameter()*featBound + targetBound
	raw := 2 * maxResid * featBound // sup ‖∇‖ for c = 1
	l := &Squared{c: 1 / raw}
	l.glm = glm{name: name, dom: dom, target: vecmath.Copy(target), profile: l.Scalar}
	return l, nil
}

// Scalar returns the profile c(z−y)² and its derivative in z, where z is
// the prediction and y the target attribute ⟨target, x⟩.
func (l *Squared) Scalar(z, y float64) (float64, float64) {
	r := z - y
	return l.c * r * r, 2 * l.c * r
}

// Logistic is the logistic-regression loss in GLM form:
//
//	ℓ(θ; (x, y)) = c · log(1 + exp(−(sign(y)·⟨θ, x⟩ − margin)/temp))
//
// The (margin, temp) pair parameterizes a family of distinct classification
// queries over the same data. c normalizes to 1-Lipschitz.
type Logistic struct {
	glm
	margin float64
	temp   float64
	c      float64
}

// NewLogistic constructs a logistic loss. featBound bounds ‖feat(x)‖₂.
func NewLogistic(name string, dom Domain, margin, temp, featBound float64) (*Logistic, error) {
	if temp <= 0 {
		return nil, fmt.Errorf("convex: logistic temperature must be positive")
	}
	if featBound <= 0 {
		return nil, fmt.Errorf("convex: logistic featBound must be positive")
	}
	// |d/dz| ≤ c/temp · 1 · featBound (sigmoid derivative factor ≤ 1).
	l := &Logistic{margin: margin, temp: temp, c: temp / featBound}
	l.glm = glm{name: name, dom: dom, profile: l.Scalar}
	return l, nil
}

// Scalar returns the GLM profile c·log(1+exp(−(sign(y)·z − margin)/temp))
// and its derivative in z, where z = ⟨θ, x⟩ and y is the record's label.
func (l *Logistic) Scalar(z, y float64) (float64, float64) {
	s := sign(y)
	m := s * z
	u := -(m - l.margin) / l.temp
	// Stable softplus: log(1+e^u).
	var sp, dsp float64
	if u > 30 {
		sp, dsp = u, 1
	} else if u < -30 {
		// log(1+e^u) = e^u and its derivative e^u/(1+e^u) = e^u to
		// double precision.
		e := math.Exp(u)
		sp, dsp = e, e
	} else {
		e := math.Exp(u)
		sp = math.Log1p(e)
		dsp = e / (1 + e)
	}
	// d/dz = d/dm · s, with d/dm = c·dsp·(−1/temp).
	return l.c * sp, l.c * dsp * (-1 / l.temp) * s
}

// SmoothedHinge is the quadratically smoothed hinge loss (smooth SVM):
//
//	profile h(m) = 0            if m ≥ 1
//	             = (1−m)²/2     if 0 < m < 1
//	             = 1/2 − m      if m ≤ 0
//
// applied to the margin m = sign(y)·⟨θ, x⟩/width, scaled to 1-Lipschitz.
type SmoothedHinge struct {
	glm
	width float64
	c     float64
}

// NewSmoothedHinge constructs a smoothed hinge loss with the given margin
// width (> 0). featBound bounds ‖feat(x)‖₂.
func NewSmoothedHinge(name string, dom Domain, width, featBound float64) (*SmoothedHinge, error) {
	if width <= 0 || featBound <= 0 {
		return nil, fmt.Errorf("convex: hinge width and featBound must be positive")
	}
	// |h′| ≤ 1, chain rule gives featBound/width.
	l := &SmoothedHinge{width: width, c: width / featBound}
	l.glm = glm{name: name, dom: dom, profile: l.Scalar}
	return l, nil
}

// Scalar returns the GLM profile value and its derivative in z, where
// z = ⟨θ, x⟩ and y supplies the label sign (margin m = sign(y)·z/width).
func (l *SmoothedHinge) Scalar(z, y float64) (float64, float64) {
	s := sign(y)
	m := s * z / l.width
	var h, dh float64
	switch {
	case m >= 1:
		h, dh = 0, 0
	case m > 0:
		h, dh = (1-m)*(1-m)/2, -(1 - m)
	default:
		h, dh = 0.5-m, -1
	}
	return l.c * h, l.c * dh * s / l.width
}

// Huber is robust regression with the Huber profile ρ_δ applied to the
// residual z − y, normalized to 1-Lipschitz.
type Huber struct {
	glm
	delta float64
	c     float64
}

// NewHuber constructs a Huber loss with transition point delta (> 0).
func NewHuber(name string, dom Domain, delta, featBound float64) (*Huber, error) {
	if delta <= 0 || featBound <= 0 {
		return nil, fmt.Errorf("convex: huber delta and featBound must be positive")
	}
	// |ρ′_δ| ≤ δ, so sup ‖∇‖ ≤ δ·featBound for c = 1.
	l := &Huber{delta: delta, c: 1 / (delta * featBound)}
	l.glm = glm{name: name, dom: dom, profile: l.Scalar}
	return l, nil
}

// Scalar returns c·ρ_δ(z − y) and its derivative in z.
func (l *Huber) Scalar(z, y float64) (float64, float64) {
	r := z - y
	if math.Abs(r) <= l.delta {
		return l.c * r * r / 2, l.c * r
	}
	return l.c * (l.delta*math.Abs(r) - l.delta*l.delta/2), l.c * l.delta * sign(r)
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

// LinearForm is the affine loss ℓ_v(θ; x) = −⟨θ, x⟩·⟨v, x⟩ / featBound².
// It is convex (affine in θ), 1-Lipschitz, and its exact minimizer over an
// L2 ball has closed form: θ* = R · normalize(E_D[⟨v, x⟩·x]). Experiments
// and tests use it when a ground-truth answer is needed.
type LinearForm struct {
	name string
	dom  Domain
	v    []float64
	c    float64
}

// NewLinearForm constructs the loss with direction v over the full record
// vector. featBound bounds ‖x‖₂ over the universe and ‖v‖₂ must be ≤ 1.
func NewLinearForm(name string, dom Domain, v []float64, featBound float64) (*LinearForm, error) {
	if featBound <= 0 {
		return nil, fmt.Errorf("convex: linear form featBound must be positive")
	}
	if vecmath.Norm2(v) > 1+1e-9 {
		return nil, fmt.Errorf("convex: linear form direction must have norm ≤ 1")
	}
	return &LinearForm{name: name, dom: dom, v: vecmath.Copy(v), c: 1 / (featBound * featBound)}, nil
}

// Name returns the instance name.
func (l *LinearForm) Name() string { return l.name }

// Domain returns Θ.
func (l *LinearForm) Domain() Domain { return l.dom }

// Weight returns the per-record gradient direction −c·⟨v, x⟩·feat(x); the
// gradient is constant in θ.
func (l *LinearForm) weight(x []float64) float64 {
	return -l.c * vecmath.Dot(l.v, x)
}

// Value evaluates the loss.
func (l *LinearForm) Value(theta, x []float64) float64 {
	d := l.dom.Dim()
	var z float64
	for i := 0; i < d; i++ {
		z += theta[i] * x[i]
	}
	return l.weight(x) * z
}

// Grad writes the (θ-independent) gradient.
func (l *LinearForm) Grad(grad, theta, x []float64) {
	w := l.weight(x)
	d := l.dom.Dim()
	for i := 0; i < d; i++ {
		grad[i] = w * x[i]
	}
}

// Lipschitz returns 1.
func (l *LinearForm) Lipschitz() float64 { return 1 }

// StrongConvexity returns 0.
func (l *LinearForm) StrongConvexity() float64 { return 0 }

// ExactMinimize returns the closed-form minimizer over an L2 ball: the
// objective is ⟨w, θ⟩ with w = −c·E_D[⟨v, x⟩·feat(x)], minimized at
// θ* = −R·w/‖w‖ (any point when w = 0; we return the center).
func (l *LinearForm) ExactMinimize(h *histogram.Histogram) []float64 {
	ball, ok := l.dom.(*L2Ball)
	if !ok {
		return nil
	}
	d := l.dom.Dim()
	w := make([]float64, d)
	buf := make([]float64, h.U.Dim())
	for i, p := range h.P {
		if p == 0 {
			continue
		}
		x := h.U.PointInto(i, buf)
		pw := p * l.weight(x)
		for j := 0; j < d; j++ {
			w[j] += pw * x[j]
		}
	}
	n := vecmath.Norm2(w)
	if n == 0 {
		return l.dom.Center()
	}
	return vecmath.Scale(-ball.Radius()/n, w)
}

// LinearQuery embeds a linear (statistical/counting) query as a CM query,
// the special case the paper repeatedly appeals to: Θ = [0, 1] and
//
//	ℓ_q(θ; x) = (θ − q(x))² / 2
//
// whose population minimizer is exactly the query answer E_D[q(x)].
// Predicates must map records into [0, 1].
type LinearQuery struct {
	name    string
	dom     *Interval
	pred    func(x []float64) float64
	support []int
}

// NewLinearQuery wraps a [0,1]-valued predicate as a CM query.
func NewLinearQuery(name string, pred func(x []float64) float64) (*LinearQuery, error) {
	if pred == nil {
		return nil, fmt.Errorf("convex: nil predicate")
	}
	iv, err := NewInterval(0, 1)
	if err != nil {
		return nil, err
	}
	return &LinearQuery{name: name, dom: iv, pred: pred}, nil
}

// Name returns the instance name.
func (l *LinearQuery) Name() string { return l.name }

// Domain returns [0, 1].
func (l *LinearQuery) Domain() Domain { return l.dom }

// Predicate evaluates q(x).
func (l *LinearQuery) Predicate(x []float64) float64 { return l.pred(x) }

// WithSupport declares that the predicate reads only the given record
// coordinates, unlocking factored evaluation over implicit universes. It
// copies coords and returns the receiver for chaining. The declaration is
// the caller's assertion — it is not verified here (the cross-engine
// equivalence tests are the check).
func (l *LinearQuery) WithSupport(coords []int) *LinearQuery {
	l.support = append([]int(nil), coords...)
	return l
}

// Support returns the declared support coordinates, nil when undeclared.
func (l *LinearQuery) Support() []int { return l.support }

// Value returns (θ − q(x))²/2.
func (l *LinearQuery) Value(theta, x []float64) float64 {
	r := theta[0] - l.pred(x)
	return r * r / 2
}

// Grad writes θ − q(x).
func (l *LinearQuery) Grad(grad, theta, x []float64) {
	grad[0] = theta[0] - l.pred(x)
}

// ExactMinimize returns the exact answer E_D[q(x)]: the population loss is
// (1/2)·E(θ−q)², minimized at the mean.
func (l *LinearQuery) ExactMinimize(h *histogram.Histogram) []float64 {
	var mean float64
	buf := make([]float64, h.U.Dim())
	for i, p := range h.P {
		if p == 0 {
			continue
		}
		mean += p * l.pred(h.U.PointInto(i, buf))
	}
	return []float64{vecmath.Clamp(mean, 0, 1)}
}

// Lipschitz returns 1: |θ − q(x)| ≤ 1 on [0,1]×[0,1].
func (l *LinearQuery) Lipschitz() float64 { return 1 }

// StrongConvexity returns 1: the profile is (1/2)(θ−q)², exactly
// 1-strongly convex.
func (l *LinearQuery) StrongConvexity() float64 { return 1 }

// Regularized wraps an inner loss with an L2 ridge term:
//
//	ℓ_σ(θ; x) = ℓ(θ; x) + (σ/2)·‖θ‖₂²
//
// making it σ-strongly convex (paper §4.2.3). The Lipschitz constant grows
// by σ·max‖θ‖ ≤ σ·diam(Θ).
type Regularized struct {
	inner Loss
	sigma float64
}

// NewRegularized wraps inner with ridge coefficient sigma ≥ 0.
func NewRegularized(inner Loss, sigma float64) (*Regularized, error) {
	if sigma < 0 {
		return nil, fmt.Errorf("convex: negative ridge coefficient")
	}
	return &Regularized{inner: inner, sigma: sigma}, nil
}

// Name returns the decorated name.
func (l *Regularized) Name() string {
	return fmt.Sprintf("%s+ridge(%g)", l.inner.Name(), l.sigma)
}

// Domain returns the inner domain.
func (l *Regularized) Domain() Domain { return l.inner.Domain() }

// Value adds the ridge term.
func (l *Regularized) Value(theta, x []float64) float64 {
	n := vecmath.Norm2(theta)
	return l.inner.Value(theta, x) + l.sigma/2*n*n
}

// Grad adds σ·θ.
func (l *Regularized) Grad(grad, theta, x []float64) {
	l.inner.Grad(grad, theta, x)
	for i := range grad {
		grad[i] += l.sigma * theta[i]
	}
}

// Lipschitz returns L_inner + σ·diam(Θ).
func (l *Regularized) Lipschitz() float64 {
	return l.inner.Lipschitz() + l.sigma*l.inner.Domain().Diameter()
}

// StrongConvexity returns σ_inner + σ.
func (l *Regularized) StrongConvexity() float64 {
	return l.inner.StrongConvexity() + l.sigma
}

// Inner returns the wrapped loss.
func (l *Regularized) Inner() Loss { return l.inner }

// Scaled multiplies a loss by a positive constant c, scaling its Lipschitz
// constant and strong-convexity modulus by c. Its main use is renormalizing
// a Regularized loss back to the paper's 1-Lipschitz convention (§4.2.3
// assumes σ-strongly convex losses that are still 1-Lipschitz): wrap with
// c = 1/Lipschitz.
type Scaled struct {
	inner Loss
	c     float64
}

// NewScaled wraps inner with multiplier c > 0.
func NewScaled(inner Loss, c float64) (*Scaled, error) {
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return nil, fmt.Errorf("convex: scale %v must be positive and finite", c)
	}
	return &Scaled{inner: inner, c: c}, nil
}

// NewUnitLipschitz rescales inner to a certified Lipschitz constant of 1.
func NewUnitLipschitz(inner Loss) (*Scaled, error) {
	l := inner.Lipschitz()
	if l <= 0 {
		return nil, fmt.Errorf("convex: cannot normalize loss with Lipschitz bound %v", l)
	}
	return NewScaled(inner, 1/l)
}

// Name returns the decorated name.
func (l *Scaled) Name() string { return fmt.Sprintf("%s×%g", l.inner.Name(), l.c) }

// Domain returns the inner domain.
func (l *Scaled) Domain() Domain { return l.inner.Domain() }

// Value returns c·ℓ(θ; x).
func (l *Scaled) Value(theta, x []float64) float64 { return l.c * l.inner.Value(theta, x) }

// Grad writes c·∇ℓ.
func (l *Scaled) Grad(grad, theta, x []float64) {
	l.inner.Grad(grad, theta, x)
	for i := range grad {
		grad[i] *= l.c
	}
}

// Lipschitz returns c·L.
func (l *Scaled) Lipschitz() float64 { return l.c * l.inner.Lipschitz() }

// StrongConvexity returns c·σ.
func (l *Scaled) StrongConvexity() float64 { return l.c * l.inner.StrongConvexity() }

// Inner returns the wrapped loss.
func (l *Scaled) Inner() Loss { return l.inner }
