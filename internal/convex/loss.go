package convex

import (
	"repro/internal/histogram"
	"repro/internal/universe"
	"repro/internal/xeval"
)

// Loss is a convex loss function ℓ(θ; x) defining a CM query (paper §2.2).
// The record x is the vector encoding of a universe element. Implementations
// must be deterministic and safe for concurrent use.
//
// Besides the per-record Value and Grad, every loss has four range kernels
// over a universe index range [lo, hi), and EvalOn, DirGradOn and the Sweep
// run them on every chunk. Indexing of out and w is relative to lo (out[0]
// is universe element lo), buffers are caller-owned and may be sub-slices
// of full-universe vectors, and calls on disjoint ranges must be safe
// concurrently. The kernels guarantee:
//
//   - EvalBatch equals Value bit for bit, element by element, so a sum of
//     weighted values does not depend on which of the two computed it;
//   - GradBatch and DirGradBatch agree with Grad up to rounding (they may
//     reassociate, e.g. forming (w·dv)·x_j or dv·⟨dir, x⟩);
//   - ValueGradBatch's values and gradient equal EvalBatch's and
//     GradBatch's bit for bit.
//
// A wrapper that overrides Value or Grad must override the four kernels
// too: a struct embedding a Loss inherits the inner loss's kernels, and
// sweeps would then evaluate the inner loss, not the wrapper.
type Loss interface {
	// Name identifies the loss instance (used in experiment reports).
	Name() string
	// Domain returns Θ.
	Domain() Domain
	// Value returns ℓ(θ; x).
	Value(theta, x []float64) float64
	// Grad writes ∇_θ ℓ(θ; x) into grad (len = Domain().Dim()).
	Grad(grad, theta, x []float64)
	// Lipschitz returns a certified bound L with ‖∇ℓ_x(θ)‖₂ ≤ L for all
	// θ ∈ Θ and all x in the universe the loss was built for.
	Lipschitz() float64
	// StrongConvexity returns σ ≥ 0 such that ℓ is σ-strongly convex in θ
	// (0 when merely convex).
	StrongConvexity() float64
	// EvalBatch writes ℓ(θ; x_i) into out[i−lo] for every i in [lo, hi).
	EvalBatch(out, theta []float64, u universe.Universe, lo, hi int)
	// GradBatch accumulates Σ_{i∈[lo,hi)} w[i−lo]·∇ℓ(θ; x_i) into grad
	// (which it does not zero).
	GradBatch(grad, theta, w []float64, u universe.Universe, lo, hi int)
	// ValueGradBatch is EvalBatch and GradBatch in one pass: it writes
	// ℓ(θ; x_i) into out[i−lo] for every i in [lo, hi) with w[i−lo] ≠ 0
	// (other entries of out are unspecified) and accumulates
	// Σ w[i−lo]·∇ℓ(θ; x_i) into grad.
	ValueGradBatch(out, grad, theta, w []float64, u universe.Universe, lo, hi int)
	// DirGradBatch writes ⟨dir, ∇ℓ(θ; x_i)⟩ into out[i−lo] for every i in
	// [lo, hi): the per-element dual-certificate kernel.
	DirGradBatch(out, dir, theta []float64, u universe.Universe, lo, hi int)
}

// GLM is implemented by losses of generalized-linear-model form (paper
// §4.2.2): ℓ(θ; x) = Scalar(⟨θ, feat(x)⟩, Label(x)), so it depends on θ
// only through the inner product with the record's features. Scalar and
// Label expose the 1-dimensional profile and the label it reads, letting
// the GLM oracle in internal/erm work in the reduced space. The five GLM
// families share one body (glm.go) that defines Value, Grad and the batch
// kernels from these two methods.
type GLM interface {
	Loss
	// Scalar returns the profile ℓ′(z; y) and its derivative in z, where
	// z = ⟨θ, feat(x)⟩ and y = Label(x).
	Scalar(z, y float64) (value, deriv float64)
	// Label returns the profile's second argument for record x:
	// ⟨target, x⟩ for a squared loss, the last coordinate otherwise.
	Label(x []float64) float64
}

// ExactSolvable is implemented by losses whose population minimizer has a
// closed form. Solvers use it as a fast path; the generic projected-gradient
// route must agree with it (tested in optimize).
type ExactSolvable interface {
	Loss
	// ExactMinimize returns argmin_θ ℓ(θ; h) exactly.
	ExactMinimize(h *histogram.Histogram) []float64
}

// ScaleBound returns the paper's scale parameter
//
//	S = max_{x, θ, θ′} |⟨θ − θ′, ∇ℓ_x(θ)⟩| ≤ diam(Θ) · Lipschitz(ℓ),
//
// the constant the algorithm's T, η and sensitivity computations use (§3.2).
func ScaleBound(l Loss) float64 {
	return l.Domain().Diameter() * l.Lipschitz()
}

// All universe expectations below run on the xeval engine: fixed chunk
// boundaries over [0, |X|) with pairwise reduction, so for any worker
// count the result is bit-identical to the serial (nil-engine) path. Every
// chunk runs exactly one of the loss's range kernels, whatever its
// weights. Solvers build one Sweep per solve and take each iterate's value
// and gradient from one ValueGrad call (or its gradient alone from Grad);
// ValueGrad's value carries EvalOn's exact bits.

// EvalOn returns the population loss ℓ(θ; D) = Σ_x D(x)·ℓ(θ; x), evaluated
// chunk-parallel on e (nil means serial). Each chunk runs EvalBatch and
// sums w·value over its nonzero weights in index order.
func EvalOn(e *xeval.Engine, l Loss, theta []float64, h *histogram.Histogram) float64 {
	u := h.U
	return e.Sum(u.Size(), func(lo, hi int) float64 {
		bufp, vals := scratch(hi - lo)
		l.EvalBatch(vals, theta, u, lo, hi)
		s := weightedValue(vals, h.P[lo:hi])
		chunkBuf.Put(bufp)
		return s
	})
}

// Sweep evaluates one loss's population value ℓ(θ; D) and gradient
// ∇ℓ(θ; D) on one histogram at a sequence of iterates θ, chunk-parallel on
// one engine. It is built once per solve and holds its own reduction and
// accumulator, so an iterate's sweep allocates nothing beyond what the
// loss's kernels do. A Sweep is not safe for concurrent use.
//
// Each chunk writes a d+1 partial into one xeval.VecSum: slot 0 holds its
// value partial, slots 1..d its gradient partial. The VecSum reduces every
// slot with the same pairwise tree as xeval's Sum, so the value is
// bit-identical to EvalOn's. ValueGrad runs the fused kernel on every chunk
// and then EvalOn's weighted sum over its values; Grad runs the gradient
// kernel alone, and its bits equal ValueGrad's gradient.
type Sweep struct {
	red   *xeval.VecSum
	acc   []float64 // slot 0: value; slots 1..d: gradient
	theta []float64 // the iterate the chunk kernel reads during a Run
	value bool      // whether the current Run computes the value too
}

// NewSweep builds the sweep of l over h on e (nil means serial).
func NewSweep(e *xeval.Engine, l Loss, h *histogram.Histogram) *Sweep {
	d := l.Domain().Dim()
	u := h.U
	s := &Sweep{acc: make([]float64, d+1)}
	s.red = e.NewVecSum(u.Size(), d+1, func(lo, hi int, out []float64) {
		w := h.P[lo:hi]
		if !s.value {
			l.GradBatch(out[1:], s.theta, w, u, lo, hi)
			return
		}
		bufp, vals := scratch(hi - lo)
		l.ValueGradBatch(vals, out[1:], s.theta, w, u, lo, hi)
		out[0] = weightedValue(vals, w)
		chunkBuf.Put(bufp)
	})
	return s
}

// ValueGrad returns the population loss ℓ(θ; D) and writes the population
// gradient ∇ℓ(θ; D) into grad (len = Domain().Dim()), from one sweep.
func (s *Sweep) ValueGrad(grad, theta []float64) float64 {
	s.run(theta, true)
	copy(grad, s.acc[1:])
	return s.acc[0]
}

// Grad writes the population gradient ∇ℓ(θ; D) = Σ_x D(x)·∇ℓ_x(θ) into
// grad, from one sweep that computes no values.
func (s *Sweep) Grad(grad, theta []float64) {
	s.run(theta, false)
	copy(grad, s.acc[1:])
}

// run sweeps the kernel at theta into s.acc.
func (s *Sweep) run(theta []float64, value bool) {
	s.theta, s.value = theta, value
	s.red.Run(s.acc)
	s.theta = nil
}

// weightedValue returns Σ w[i]·vals[i] over the nonzero weights, in index
// order; vals need only be defined where w is nonzero.
func weightedValue(vals, w []float64) float64 {
	var s float64
	for i, wi := range w {
		if wi != 0 {
			s += wi * vals[i]
		}
	}
	return s
}

// DirGradOn writes the directional gradients ⟨dir, ∇ℓ_x(θ)⟩ into
// out[i] for every universe element i, chunk-parallel on e. This is the
// dual-certificate vector of paper Claim 3.5 (before clamping to [−S, S]).
func DirGradOn(e *xeval.Engine, l Loss, out, dir, theta []float64, u universe.Universe) {
	e.ForEach(u.Size(), func(lo, hi int) {
		l.DirGradBatch(out[lo:hi], dir, theta, u, lo, hi)
	})
}
