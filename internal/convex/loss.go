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
// calls otherwise. Solvers take each iterate's value and gradient from one
// ValueGradOn sweep; EvalOn and GradOn remain for callers that need only
// one of the two, and ValueGradOn returns exactly their bits.

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
		bufp := chunkBuf.Get().(*[]float64)
		out := (*bufp)[:hi-lo]
		evalRange(l, out, theta, u, lo, hi)
		s := weightedValue(out, w)
		chunkBuf.Put(bufp)
		return s
	})
}

// ValueGradOn returns the population loss ℓ(θ; D) and writes the
// population gradient ∇ℓ(θ; D) into grad (len = Domain().Dim()), from one
// chunk-parallel sweep on e (nil means serial). The value is
// bit-identical to EvalOn's and the gradient to GradOn's.
//
// Each chunk writes a d+1 partial into one SumVec: slot 0 holds its value
// partial, slots 1..d its gradient partial. SumVec reduces every slot with
// the same pairwise tree as Sum, and each chunk takes the same branch with
// the same arithmetic as in EvalOn and GradOn: all-zero chunks contribute
// nothing, sparse chunks sum Value over their nonzero cells and run the
// gradient kernel, dense chunks run the fused kernel and then the same
// weighted sum over its values.
func ValueGradOn(e *xeval.Engine, l Loss, grad, theta []float64, h *histogram.Histogram) float64 {
	u := h.U
	acc := e.SumVec(make([]float64, len(grad)+1), u.Size(), func(lo, hi int, out []float64) {
		w := h.P[lo:hi]
		nnz := nonzeros(w)
		if nnz == 0 {
			return
		}
		if nnz < (hi-lo)/4 {
			out[0] = sparseValue(l, theta, u, w, lo)
			gradRange(l, out[1:], theta, w, u, lo, hi)
			return
		}
		bufp := chunkBuf.Get().(*[]float64)
		vals := (*bufp)[:hi-lo]
		valueGradRange(l, vals, out[1:], theta, w, u, lo, hi)
		out[0] = weightedValue(vals, w)
		chunkBuf.Put(bufp)
	})
	copy(grad, acc[1:])
	return acc[0]
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
	buf := make([]float64, u.Dim())
	for i, wi := range w {
		if wi != 0 {
			s += wi * l.Value(theta, u.PointInto(lo+i, buf))
		}
	}
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

// GradOn writes the population gradient ∇ℓ(θ; D) = Σ_x D(x)·∇ℓ_x(θ) into
// grad and returns it (allocating when nil), evaluated chunk-parallel on e
// (nil means serial).
func GradOn(e *xeval.Engine, l Loss, grad, theta []float64, h *histogram.Histogram) []float64 {
	d := l.Domain().Dim()
	if grad == nil {
		grad = make([]float64, d)
	}
	u := h.U
	return e.SumVec(grad, u.Size(), func(lo, hi int, out []float64) {
		w := h.P[lo:hi]
		if allZero(w) {
			return
		}
		gradRange(l, out, theta, w, u, lo, hi)
	})
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
