package convex

import (
	"repro/internal/histogram"
	"repro/internal/universe"
	"repro/internal/xeval"
)

// Loss is a convex loss function ℓ(θ; x) defining a CM query (paper §2.2).
// The record x is the vector encoding of a universe element. Implementations
// must be deterministic and safe for concurrent use.
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
// count the result is bit-identical to the serial (nil-engine) path.
// Per-chunk work dispatches through the BatchLoss fast path (batch.go)
// when the loss provides one and falls back to per-element Value/Grad
// calls otherwise. Solvers build one Sweep per solve and take each
// iterate's value and gradient from one ValueGrad call (or its gradient
// alone from Grad); ValueGrad's value carries EvalOn's exact bits.

// EvalOn returns the population loss ℓ(θ; D) = Σ_x D(x)·ℓ(θ; x), evaluated
// chunk-parallel on e (nil means serial).
//
// Chunks adapt to the histogram's support: mostly-zero chunks (empirical
// histograms of n ≪ |X| records) evaluate only their nonzero cells, dense
// chunks (MW hypothesis histograms) take the batched kernel. Both paths
// accumulate identical values in identical index order, and the choice
// depends only on the weights, so results stay worker-count deterministic.
func EvalOn(e *xeval.Engine, l Loss, theta []float64, h *histogram.Histogram) float64 {
	u := h.U
	return e.Sum(u.Size(), func(lo, hi int) float64 {
		w := h.P[lo:hi]
		nnz := nonzeros(w)
		if nnz == 0 {
			return 0
		}
		if nnz < (hi-lo)/4 {
			return sparseValue(l, theta, u, w, lo)
		}
		bufp, out := scratch(hi - lo)
		evalRange(l, out, theta, u, lo, hi)
		s := weightedValue(out, w)
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
// bit-identical to EvalOn's, and every chunk takes a fixed branch: all-zero
// chunks contribute nothing, sparse chunks (nnz < n/4) sum Value over
// their nonzero cells and run the gradient kernel, dense chunks run the
// fused kernel and then the same weighted sum over its values. Grad runs
// the gradient kernel alone on every chunk with a nonzero weight; its
// bits equal ValueGrad's gradient.
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
			if !allZero(w) {
				gradRange(l, out[1:], s.theta, w, u, lo, hi)
			}
			return
		}
		nnz := nonzeros(w)
		if nnz == 0 {
			return
		}
		if nnz < (hi-lo)/4 {
			out[0] = sparseValue(l, s.theta, u, w, lo)
			gradRange(l, out[1:], s.theta, w, u, lo, hi)
			return
		}
		bufp, vals := scratch(hi - lo)
		valueGradRange(l, vals, out[1:], s.theta, w, u, lo, hi)
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

// nonzeros returns the number of nonzero weights in a chunk.
func nonzeros(w []float64) int {
	nnz := 0
	for _, wi := range w {
		if wi != 0 {
			nnz++
		}
	}
	return nnz
}

// sparseValue returns Σ w[i]·ℓ(θ; x_{lo+i}) over the nonzero weights of a
// mostly-zero chunk, evaluating only those cells.
func sparseValue(l Loss, theta []float64, u universe.Universe, w []float64, lo int) float64 {
	var s float64
	bufp, buf := scratch(u.Dim())
	for i, wi := range w {
		if wi != 0 {
			s += wi * l.Value(theta, u.PointInto(lo+i, buf))
		}
	}
	chunkBuf.Put(bufp)
	return s
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
		dirGradRange(l, out[lo:hi], dir, theta, u, lo, hi)
	})
}

// allZero reports whether every entry of w is zero — the common case for
// chunks of an empirical histogram over a large universe, which lets the
// expectation kernels skip whole chunks.
func allZero(w []float64) bool {
	for _, v := range w {
		if v != 0 {
			return false
		}
	}
	return true
}
