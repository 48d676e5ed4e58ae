package convex

import (
	"sync"

	"repro/internal/universe"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

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

// GLM family kernels live on the shared body in glm.go.

// ---------------------------------------------------------------------------
// LinearForm kernels: ∇ℓ_x is the θ-independent vector weight(x)·feat(x).

// EvalBatch implements Loss: weight(x)·⟨θ, feat(x)⟩ per element.
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

// GradBatch implements Loss: Σ w·weight(x)·feat(x), independent of θ.
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

// ValueGradBatch implements Loss: EvalBatch and GradBatch at the
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

// DirGradBatch implements Loss: weight(x)·⟨dir, feat(x)⟩ per element.
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

// EvalBatch implements Loss: (θ − q(x))²/2 per element.
func (l *LinearQuery) EvalBatch(out, theta []float64, u universe.Universe, lo, hi int) {
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		r := theta[0] - l.pred(pts[k*dim:(k+1)*dim:(k+1)*dim])
		out[k] = r * r / 2
	}
	release()
}

// GradBatch implements Loss: Σ w·(θ − q(x)).
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

// ValueGradBatch implements Loss: (θ − q(x))²/2 and Σ w·(θ − q(x))
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

// DirGradBatch implements Loss: dir·(θ − q(x)) per element.
func (l *LinearQuery) DirGradBatch(out, dir, theta []float64, u universe.Universe, lo, hi int) {
	dim := u.Dim()
	pts, release := xeval.MaterializePoints(u, lo, hi)
	for k := 0; k < hi-lo; k++ {
		out[k] = dir[0] * (theta[0] - l.pred(pts[k*dim:(k+1)*dim:(k+1)*dim]))
	}
	release()
}

// ---------------------------------------------------------------------------
// Decorator kernels. Regularized and Scaled run the inner loss's kernels
// and apply their transformation on top. EvalBatch applies it with the
// same operations as Value, so it stays bit-identical to Value.

// EvalBatch implements Loss: the inner values plus (σ/2)·‖θ‖².
func (l *Regularized) EvalBatch(out, theta []float64, u universe.Universe, lo, hi int) {
	l.inner.EvalBatch(out, theta, u, lo, hi)
	n := vecmath.Norm2(theta)
	vecmath.AddConst(out[:hi-lo], l.sigma/2*n*n)
}

// GradBatch implements Loss: the inner weighted sum plus σ·θ·Σw.
func (l *Regularized) GradBatch(grad, theta, w []float64, u universe.Universe, lo, hi int) {
	l.inner.GradBatch(grad, theta, w, u, lo, hi)
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

// ValueGradBatch implements Loss: EvalBatch's ridge term on the
// values and GradBatch's on the gradient, over one inner pass.
func (l *Regularized) ValueGradBatch(out, grad, theta, w []float64, u universe.Universe, lo, hi int) {
	l.inner.ValueGradBatch(out, grad, theta, w, u, lo, hi)
	n := vecmath.Norm2(theta)
	vecmath.AddConst(out[:hi-lo], l.sigma/2*n*n)
	l.addRidgeGrad(grad, theta, w[:hi-lo])
}

// DirGradBatch implements Loss: the inner values plus σ·⟨dir, θ⟩.
func (l *Regularized) DirGradBatch(out, dir, theta []float64, u universe.Universe, lo, hi int) {
	l.inner.DirGradBatch(out, dir, theta, u, lo, hi)
	vecmath.AddConst(out[:hi-lo], l.sigma*vecmath.Dot(dir, theta))
}

// EvalBatch implements Loss: the inner values times c.
func (l *Scaled) EvalBatch(out, theta []float64, u universe.Universe, lo, hi int) {
	l.inner.EvalBatch(out, theta, u, lo, hi)
	vecmath.ScaleInPlace(out[:hi-lo], l.c)
}

// GradBatch implements Loss: c times the inner weighted sum.
func (l *Scaled) GradBatch(grad, theta, w []float64, u universe.Universe, lo, hi int) {
	tp, tmp := scratch(len(grad))
	clear(tmp)
	l.inner.GradBatch(tmp, theta, w, u, lo, hi)
	vecmath.AddScaled(grad, l.c, tmp)
	chunkBuf.Put(tp)
}

// ValueGradBatch implements Loss: the inner values times c, and c
// times the inner weighted sum, over one inner pass.
func (l *Scaled) ValueGradBatch(out, grad, theta, w []float64, u universe.Universe, lo, hi int) {
	tp, tmp := scratch(len(grad))
	clear(tmp)
	l.inner.ValueGradBatch(out, tmp, theta, w, u, lo, hi)
	vecmath.ScaleInPlace(out[:hi-lo], l.c)
	vecmath.AddScaled(grad, l.c, tmp)
	chunkBuf.Put(tp)
}

// DirGradBatch implements Loss: the inner values times c.
func (l *Scaled) DirGradBatch(out, dir, theta []float64, u universe.Universe, lo, hi int) {
	l.inner.DirGradBatch(out, dir, theta, u, lo, hi)
	vecmath.ScaleInPlace(out[:hi-lo], l.c)
}
