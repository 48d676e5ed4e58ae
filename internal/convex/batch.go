package convex

import (
	"sync"

	"repro/internal/universe"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// BatchLoss is the optional batched fast path of a loss: kernels that
// evaluate values, weighted gradient sums, both of those at once, and
// directional gradients over a universe index range [lo, hi) in one call,
// writing into caller-owned buffers. The xeval-based expectation paths in
// loss.go dispatch to these kernels when present; every loss family in
// this package implements them.
//
// Contract shared by all four methods: indexing of out/w is relative to
// lo (out[0] corresponds to universe element lo), buffers are caller-owned
// and may be sub-slices of full-universe vectors, and implementations must
// be safe for concurrent calls on disjoint ranges.
type BatchLoss interface {
	Loss
	// EvalBatch writes ℓ(θ; x_i) into out[i−lo] for every i in [lo, hi).
	EvalBatch(out, theta []float64, u universe.Universe, lo, hi int)
	// GradBatch accumulates Σ_{i∈[lo,hi)} w[i−lo]·∇ℓ(θ; x_i) into grad
	// (which it does not zero).
	GradBatch(grad, theta, w []float64, u universe.Universe, lo, hi int)
	// ValueGradBatch is EvalBatch and GradBatch in one pass: it writes
	// ℓ(θ; x_i) into out[i−lo] for every i in [lo, hi) with w[i−lo] ≠ 0
	// (other entries of out are unspecified) and accumulates
	// Σ w[i−lo]·∇ℓ(θ; x_i) into grad. Both results are bit-identical to
	// the two separate kernels'.
	ValueGradBatch(out, grad, theta, w []float64, u universe.Universe, lo, hi int)
	// DirGradBatch writes ⟨dir, ∇ℓ(θ; x_i)⟩ into out[i−lo] for every i in
	// [lo, hi) — the per-element dual-certificate kernel.
	DirGradBatch(out, dir, theta []float64, u universe.Universe, lo, hi int)
}

// chunkBuf pools scratch vectors for the expectation kernels, so a solver
// sweeping thousands of iterates allocates no per-chunk buffers after
// warmup. Entries hold at least ChunkSize floats; scratch grows the rare
// entry that must hold more.
var chunkBuf = sync.Pool{New: func() any {
	s := make([]float64, xeval.ChunkSize)
	return &s
}}

// scratch returns a pooled buffer of length n with unspecified contents,
// and the handle to hand back with chunkBuf.Put once the caller is done.
func scratch(n int) (*[]float64, []float64) {
	p := chunkBuf.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return p, (*p)[:n]
}

// All range kernels below materialize their chunk's points once via
// xeval.MaterializePoints and then iterate the flat row-major matrix.
// Dense universes turn per-element PointInto copies into one bulk copy;
// implicit product universes amortize the mixed-radix index decode across
// the chunk. The materialized rows are bit-identical to what PointInto
// returns and are visited in the same order, so results are unchanged.

// evalRange dispatches to the loss's EvalBatch kernel or the generic
// per-element fallback.
func evalRange(l Loss, out, theta []float64, u universe.Universe, lo, hi int) {
	if bl, ok := l.(BatchLoss); ok {
		bl.EvalBatch(out, theta, u, lo, hi)
		return
	}
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		out[k] = l.Value(theta, pts[k*dim:(k+1)*dim:(k+1)*dim])
	}
	release()
}

// gradRange dispatches to the loss's GradBatch kernel or the generic
// per-element fallback.
func gradRange(l Loss, grad, theta, w []float64, u universe.Universe, lo, hi int) {
	if bl, ok := l.(BatchLoss); ok {
		bl.GradBatch(grad, theta, w, u, lo, hi)
		return
	}
	g := make([]float64, len(grad))
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		wi := w[k]
		if wi == 0 {
			continue
		}
		l.Grad(g, theta, pts[k*dim:(k+1)*dim:(k+1)*dim])
		for j := range grad {
			grad[j] += wi * g[j]
		}
	}
	release()
}

// valueGradRange dispatches to the loss's ValueGradBatch kernel or the
// generic per-element fallback, which makes the same Value and Grad calls
// as evalRange and gradRange but only at nonzero weights.
func valueGradRange(l Loss, out, grad, theta, w []float64, u universe.Universe, lo, hi int) {
	if bl, ok := l.(BatchLoss); ok {
		bl.ValueGradBatch(out, grad, theta, w, u, lo, hi)
		return
	}
	g := make([]float64, len(grad))
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		wi := w[k]
		if wi == 0 {
			continue
		}
		x := pts[k*dim : (k+1)*dim : (k+1)*dim]
		out[k] = l.Value(theta, x)
		l.Grad(g, theta, x)
		for j := range grad {
			grad[j] += wi * g[j]
		}
	}
	release()
}

// dirGradRange dispatches to the loss's DirGradBatch kernel or the generic
// per-element fallback.
func dirGradRange(l Loss, out, dir, theta []float64, u universe.Universe, lo, hi int) {
	if bl, ok := l.(BatchLoss); ok {
		bl.DirGradBatch(out, dir, theta, u, lo, hi)
		return
	}
	g := make([]float64, len(dir))
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		l.Grad(g, theta, pts[k*dim:(k+1)*dim:(k+1)*dim])
		out[k] = vecmath.Dot(dir, g)
	}
	release()
}

// GLM family kernels live on the shared body in glm.go.

// ---------------------------------------------------------------------------
// LinearForm kernels: ∇ℓ_x is the θ-independent vector weight(x)·feat(x).

// EvalBatch implements BatchLoss: weight(x)·⟨θ, feat(x)⟩ per element.
func (l *LinearForm) EvalBatch(out, theta []float64, u universe.Universe, lo, hi int) {
	d := l.dom.Dim()
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		x := pts[k*dim : (k+1)*dim : (k+1)*dim]
		var z float64
		for j := 0; j < d; j++ {
			z += theta[j] * x[j]
		}
		out[k] = l.weight(x) * z
	}
	release()
}

// GradBatch implements BatchLoss: Σ w·weight(x)·feat(x), independent of θ.
func (l *LinearForm) GradBatch(grad, theta, w []float64, u universe.Universe, lo, hi int) {
	d := l.dom.Dim()
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		wi := w[k]
		if wi == 0 {
			continue
		}
		x := pts[k*dim : (k+1)*dim : (k+1)*dim]
		f := wi * l.weight(x)
		for j := 0; j < d; j++ {
			grad[j] += f * x[j]
		}
	}
	release()
}

// ValueGradBatch implements BatchLoss: EvalBatch and GradBatch at the
// nonzero weights, sharing one weight(x) per element.
func (l *LinearForm) ValueGradBatch(out, grad, theta, w []float64, u universe.Universe, lo, hi int) {
	d := l.dom.Dim()
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		wi := w[k]
		if wi == 0 {
			continue
		}
		x := pts[k*dim : (k+1)*dim : (k+1)*dim]
		var z float64
		for j := 0; j < d; j++ {
			z += theta[j] * x[j]
		}
		wx := l.weight(x)
		out[k] = wx * z
		f := wi * wx
		for j := 0; j < d; j++ {
			grad[j] += f * x[j]
		}
	}
	release()
}

// DirGradBatch implements BatchLoss: weight(x)·⟨dir, feat(x)⟩ per element.
func (l *LinearForm) DirGradBatch(out, dir, theta []float64, u universe.Universe, lo, hi int) {
	d := l.dom.Dim()
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		x := pts[k*dim : (k+1)*dim : (k+1)*dim]
		var dz float64
		for j := 0; j < d; j++ {
			dz += dir[j] * x[j]
		}
		out[k] = l.weight(x) * dz
	}
	release()
}

// ---------------------------------------------------------------------------
// LinearQuery kernels: 1-dimensional with ∇ℓ_x = θ − q(x).

// EvalBatch implements BatchLoss: (θ − q(x))²/2 per element.
func (l *LinearQuery) EvalBatch(out, theta []float64, u universe.Universe, lo, hi int) {
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		r := theta[0] - l.pred(pts[k*dim:(k+1)*dim:(k+1)*dim])
		out[k] = r * r / 2
	}
	release()
}

// GradBatch implements BatchLoss: Σ w·(θ − q(x)).
func (l *LinearQuery) GradBatch(grad, theta, w []float64, u universe.Universe, lo, hi int) {
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		wi := w[k]
		if wi == 0 {
			continue
		}
		grad[0] += wi * (theta[0] - l.pred(pts[k*dim:(k+1)*dim:(k+1)*dim]))
	}
	release()
}

// ValueGradBatch implements BatchLoss: (θ − q(x))²/2 and Σ w·(θ − q(x))
// at the nonzero weights, from one residual per element.
func (l *LinearQuery) ValueGradBatch(out, grad, theta, w []float64, u universe.Universe, lo, hi int) {
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		wi := w[k]
		if wi == 0 {
			continue
		}
		r := theta[0] - l.pred(pts[k*dim:(k+1)*dim:(k+1)*dim])
		out[k] = r * r / 2
		grad[0] += wi * r
	}
	release()
}

// DirGradBatch implements BatchLoss: dir·(θ − q(x)) per element.
func (l *LinearQuery) DirGradBatch(out, dir, theta []float64, u universe.Universe, lo, hi int) {
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		out[k] = dir[0] * (theta[0] - l.pred(pts[k*dim:(k+1)*dim:(k+1)*dim]))
	}
	release()
}

// ---------------------------------------------------------------------------
// Decorator kernels. Regularized and Scaled delegate to the inner loss's
// kernels (or the generic fallback when the inner loss has none) and apply
// their transformation on top, so registry-built decorated losses keep the
// fast path.

// EvalBatch implements BatchLoss: the inner values plus (σ/2)·‖θ‖².
func (l *Regularized) EvalBatch(out, theta []float64, u universe.Universe, lo, hi int) {
	evalRange(l.inner, out, theta, u, lo, hi)
	n := vecmath.Norm2(theta)
	vecmath.AddConst(out[:hi-lo], l.sigma/2*n*n)
}

// GradBatch implements BatchLoss: the inner weighted sum plus σ·θ·Σw.
func (l *Regularized) GradBatch(grad, theta, w []float64, u universe.Universe, lo, hi int) {
	gradRange(l.inner, grad, theta, w, u, lo, hi)
	l.addRidgeGrad(grad, theta, w[:hi-lo])
}

// addRidgeGrad adds the ridge term's share of a range's weighted gradient
// sum: σ·θ per unit weight, σ·θ·Σw over the range.
func (l *Regularized) addRidgeGrad(grad, theta, w []float64) {
	var wsum float64
	for _, wi := range w {
		wsum += wi
	}
	vecmath.AddScaled(grad, l.sigma*wsum, theta)
}

// ValueGradBatch implements BatchLoss: EvalBatch's ridge term on the
// values and GradBatch's on the gradient, over one inner pass.
func (l *Regularized) ValueGradBatch(out, grad, theta, w []float64, u universe.Universe, lo, hi int) {
	valueGradRange(l.inner, out, grad, theta, w, u, lo, hi)
	n := vecmath.Norm2(theta)
	vecmath.AddConst(out[:hi-lo], l.sigma/2*n*n)
	l.addRidgeGrad(grad, theta, w[:hi-lo])
}

// DirGradBatch implements BatchLoss: the inner values plus σ·⟨dir, θ⟩.
func (l *Regularized) DirGradBatch(out, dir, theta []float64, u universe.Universe, lo, hi int) {
	dirGradRange(l.inner, out, dir, theta, u, lo, hi)
	vecmath.AddConst(out[:hi-lo], l.sigma*vecmath.Dot(dir, theta))
}

// EvalBatch implements BatchLoss: the inner values times c.
func (l *Scaled) EvalBatch(out, theta []float64, u universe.Universe, lo, hi int) {
	evalRange(l.inner, out, theta, u, lo, hi)
	vecmath.ScaleInPlace(out[:hi-lo], l.c)
}

// GradBatch implements BatchLoss: c times the inner weighted sum.
func (l *Scaled) GradBatch(grad, theta, w []float64, u universe.Universe, lo, hi int) {
	tp, tmp := scratch(len(grad))
	clear(tmp)
	gradRange(l.inner, tmp, theta, w, u, lo, hi)
	vecmath.AddScaled(grad, l.c, tmp)
	chunkBuf.Put(tp)
}

// ValueGradBatch implements BatchLoss: the inner values times c, and c
// times the inner weighted sum, over one inner pass.
func (l *Scaled) ValueGradBatch(out, grad, theta, w []float64, u universe.Universe, lo, hi int) {
	tp, tmp := scratch(len(grad))
	clear(tmp)
	valueGradRange(l.inner, out, tmp, theta, w, u, lo, hi)
	vecmath.ScaleInPlace(out[:hi-lo], l.c)
	vecmath.AddScaled(grad, l.c, tmp)
	chunkBuf.Put(tp)
}

// DirGradBatch implements BatchLoss: the inner values times c.
func (l *Scaled) DirGradBatch(out, dir, theta []float64, u universe.Universe, lo, hi int) {
	dirGradRange(l.inner, out, dir, theta, u, lo, hi)
	vecmath.ScaleInPlace(out[:hi-lo], l.c)
}

// Compile-time checks: every loss family ships its batched fast path.
var (
	_ BatchLoss = (*Squared)(nil)
	_ BatchLoss = (*Logistic)(nil)
	_ BatchLoss = (*SmoothedHinge)(nil)
	_ BatchLoss = (*Huber)(nil)
	_ BatchLoss = (*Pinball)(nil)
	_ BatchLoss = (*LinearForm)(nil)
	_ BatchLoss = (*LinearQuery)(nil)
	_ BatchLoss = (*Regularized)(nil)
	_ BatchLoss = (*Scaled)(nil)
)
