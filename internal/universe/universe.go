// Package universe defines finite data universes X.
//
// The paper's algorithm maintains a histogram over a finite universe X and
// runs in time poly(|X|) (paper §4.3). Continuous data is handled the way
// the paper prescribes in §1.1: round each point onto a finite grid, which
// changes any Lipschitz loss by at most the rounding radius. This package
// provides the universes used throughout the repo:
//
//   - Hypercube: X = {±1/√d}^d, the canonical universe of §4.3;
//   - LabeledGrid: X = feature-grid × label-grid, for regression and
//     classification losses over labeled examples (x, y);
//   - Points: an explicit list of vectors, for custom workloads;
//   - Product: an implicit product universe that stores only per-coordinate
//     factors (product.go), for universes far beyond the dense limit.
//
// Every universe enumerates its elements by index 0..Size()-1 and exposes a
// vector encoding of each element. Loss functions consume those vectors.
//
// Two capability interfaces refine Universe: Block (bulk materialization of
// index ranges, the unit of the sweep kernels) and Factored (factored.go:
// product structure exposed coordinate by coordinate, the basis of the
// factored evaluation engine). Dense code paths that must enumerate or
// allocate Θ(|X|) state guard themselves with EnsureDense, so a universe
// past the dense limit is rejected with a typed error instead of an OOM.
package universe

import (
	"errors"
	"fmt"
	"math"
)

// Universe is a finite data universe X. Implementations must be immutable
// after construction; Point may return a shared slice that callers must not
// modify.
type Universe interface {
	// Size returns |X|.
	Size() int
	// Point returns the vector encoding of element i, 0 ≤ i < Size().
	Point(i int) []float64
	// PointInto copies the vector encoding of element i into buf (which
	// must have length ≥ Dim()) and returns buf[:Dim()]. It never
	// allocates, making it the accessor of choice inside hot loops: each
	// goroutine of a parallel sweep reuses its own buffer, independent of
	// whether the universe shares or synthesizes its Point slices.
	PointInto(i int, buf []float64) []float64
	// Dim returns the length of every Point vector.
	Dim() int
	// String returns a short human-readable description.
	String() string
}

// Block is the bulk-materialization capability: universes that can write a
// whole index range of point vectors in one call. Sweep kernels use it to
// turn per-element decode/copy calls into one flat write per chunk — a
// single memmove for densely stored universes, an amortized odometer walk
// for implicit product universes.
type Block interface {
	Universe
	// PointsInto writes elements lo..hi−1 row-major into buf: element
	// lo+k occupies buf[k*Dim() : (k+1)*Dim()]. buf must have length
	// ≥ (hi−lo)·Dim(); the call never allocates.
	PointsInto(lo, hi int, buf []float64)
}

// DenseLimit is the largest universe size the dense evaluation engine will
// enumerate or allocate per-element state for (2^22, the bound the labeled
// grid has always enforced). Code paths that need Θ(|X|) memory or time
// check EnsureDense before committing; the factored engine has no such
// limit.
const DenseLimit = 1 << 22

// ErrTooLarge is the typed "universe too large" failure: a dense Θ(|X|)
// code path was asked to run over a universe past DenseLimit. Callers
// match it with errors.Is to distinguish a capacity rejection (use the
// factored engine) from a genuine fault.
var ErrTooLarge = errors.New("universe too large for dense enumeration")

// EnsureDense returns nil when u is small enough for dense Θ(|X|)
// processing and an ErrTooLarge-wrapped error otherwise. It is the guard
// every dense materialization (histograms, MW log-weight vectors, full
// sweeps) runs before allocating.
func EnsureDense(u Universe) error {
	if u.Size() > DenseLimit {
		return fmt.Errorf("universe: %s has |X| = %d > 2^22: %w", u.String(), u.Size(), ErrTooLarge)
	}
	return nil
}

// Hypercube is the universe {±1/√d}^d from paper §4.3. Every point has unit
// Euclidean norm, so 1-Lipschitz losses over the unit ball automatically
// satisfy the paper's scaling condition with S ≤ 2. All points are backed
// by one flat array (point i at flat[i*d : (i+1)*d]).
type Hypercube struct {
	d     int
	size  int
	scale float64
	flat  []float64
}

// NewHypercube constructs the universe {±1/√d}^d with |X| = 2^d elements,
// materialized densely. d must be in [1, 20] to keep |X| enumerable; use
// NewProductHypercube for the implicit variant beyond that.
func NewHypercube(d int) (*Hypercube, error) {
	if d < 1 || d > 20 {
		return nil, fmt.Errorf("universe: hypercube dimension %d outside [1,20]", d)
	}
	size := 1 << uint(d)
	scale := 1 / math.Sqrt(float64(d))
	flat := make([]float64, size*d)
	for i := 0; i < size; i++ {
		p := flat[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			if i>>uint(j)&1 == 1 {
				p[j] = scale
			} else {
				p[j] = -scale
			}
		}
	}
	return &Hypercube{d: d, size: size, scale: scale, flat: flat}, nil
}

// Size returns 2^d.
func (h *Hypercube) Size() int { return h.size }

// Point returns the i-th sign pattern scaled to the unit sphere.
func (h *Hypercube) Point(i int) []float64 { return h.flat[i*h.d : (i+1)*h.d : (i+1)*h.d] }

// PointInto copies element i into buf without allocating.
func (h *Hypercube) PointInto(i int, buf []float64) []float64 {
	buf = buf[:h.d]
	copy(buf, h.flat[i*h.d:(i+1)*h.d])
	return buf
}

// PointsInto implements Block with one flat copy.
func (h *Hypercube) PointsInto(lo, hi int, buf []float64) {
	copy(buf[:(hi-lo)*h.d], h.flat[lo*h.d:hi*h.d])
}

// Dim returns d.
func (h *Hypercube) Dim() int { return h.d }

// Levels implements Factored: every coordinate is binary.
func (h *Hypercube) Levels(coord int) int { return 2 }

// CoordValue implements Factored: level 1 is +1/√d, level 0 is −1/√d,
// matching bit coord of the element index.
func (h *Hypercube) CoordValue(coord, level int) float64 {
	if level == 1 {
		return h.scale
	}
	return -h.scale
}

// String describes the universe.
func (h *Hypercube) String() string {
	return fmt.Sprintf("hypercube{±1/√%d}^%d (|X|=%d)", h.d, h.d, h.Size())
}

// LabeledGrid is a universe of labeled examples (x, y): features x range
// over a product grid with levels values per coordinate scaled into the ball
// of radius featRadius, and labels y range over labelLevels values in
// [-labelRadius, labelRadius]. The Point encoding is (x..., y) with
// Dim() = featDim + 1. All points are backed by one flat array.
type LabeledGrid struct {
	featDim     int
	levels      int
	labelLevels int
	featVals    []float64 // scaled per-coordinate feature values
	labelVals   []float64 // scaled label values
	flat        []float64
}

// NewLabeledGrid constructs a labeled-example universe.
//
//	featDim      — number of feature coordinates d
//	levels       — grid values per feature coordinate (≥ 2)
//	featRadius   — features scaled so ‖x‖₂ ≤ featRadius
//	labelLevels  — number of distinct labels (≥ 2)
//	labelRadius  — labels uniform in [-labelRadius, labelRadius]
//
// |X| = levels^featDim · labelLevels, which must stay ≤ 2^22.
func NewLabeledGrid(featDim, levels int, featRadius float64, labelLevels int, labelRadius float64) (*LabeledGrid, error) {
	if featDim < 1 {
		return nil, fmt.Errorf("universe: featDim %d < 1", featDim)
	}
	if levels < 2 || labelLevels < 2 {
		return nil, fmt.Errorf("universe: levels %d / labelLevels %d must be ≥ 2", levels, labelLevels)
	}
	if featRadius <= 0 || labelRadius <= 0 {
		return nil, fmt.Errorf("universe: radii must be positive")
	}
	size := labelLevels
	for i := 0; i < featDim; i++ {
		size *= levels
		if size > DenseLimit {
			return nil, fmt.Errorf("universe: labeled grid size exceeds 2^22")
		}
	}
	// Per-coordinate grid values in [-1, 1], then scaled so the all-max
	// corner has norm featRadius (keeping every point inside the ball).
	cornerNorm := math.Sqrt(float64(featDim)) // ‖(1,...,1)‖
	featScale := featRadius / cornerNorm
	featVals := gridValues(levels)
	for i := range featVals {
		featVals[i] *= featScale
	}
	labelVals := gridValues(labelLevels)
	for i := range labelVals {
		labelVals[i] *= labelRadius
	}
	dim := featDim + 1
	flat := make([]float64, size*dim)
	for i := 0; i < size; i++ {
		p := flat[i*dim : (i+1)*dim]
		rem := i
		for j := 0; j < featDim; j++ {
			p[j] = featVals[rem%levels]
			rem /= levels
		}
		p[featDim] = labelVals[rem]
	}
	return &LabeledGrid{
		featDim: featDim, levels: levels, labelLevels: labelLevels,
		featVals: featVals, labelVals: labelVals, flat: flat,
	}, nil
}

// gridValues returns n values evenly spaced in [-1, 1].
func gridValues(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = -1 + 2*float64(i)/float64(n-1)
	}
	return vals
}

// Size returns |X|.
func (g *LabeledGrid) Size() int { return len(g.flat) / (g.featDim + 1) }

// Point returns element i as (features..., label).
func (g *LabeledGrid) Point(i int) []float64 {
	d := g.featDim + 1
	return g.flat[i*d : (i+1)*d : (i+1)*d]
}

// PointInto copies element i into buf without allocating.
func (g *LabeledGrid) PointInto(i int, buf []float64) []float64 {
	d := g.featDim + 1
	buf = buf[:d]
	copy(buf, g.flat[i*d:(i+1)*d])
	return buf
}

// PointsInto implements Block with one flat copy.
func (g *LabeledGrid) PointsInto(lo, hi int, buf []float64) {
	d := g.featDim + 1
	copy(buf[:(hi-lo)*d], g.flat[lo*d:hi*d])
}

// Dim returns featDim + 1.
func (g *LabeledGrid) Dim() int { return g.featDim + 1 }

// FeatureDim returns the number of feature coordinates (excludes the label).
func (g *LabeledGrid) FeatureDim() int { return g.featDim }

// Levels implements Factored: levels per feature coordinate, labelLevels
// for the final (label) coordinate.
func (g *LabeledGrid) Levels(coord int) int {
	if coord == g.featDim {
		return g.labelLevels
	}
	return g.levels
}

// CoordValue implements Factored, returning exactly the stored grid values
// (feature coordinates share one scaled value list; the label coordinate
// has its own).
func (g *LabeledGrid) CoordValue(coord, level int) float64 {
	if coord == g.featDim {
		return g.labelVals[level]
	}
	return g.featVals[level]
}

// String describes the universe.
func (g *LabeledGrid) String() string {
	return fmt.Sprintf("labeledgrid d=%d levels=%d labels=%d (|X|=%d)", g.featDim, g.levels, g.labelLevels, g.Size())
}

// Points is an explicit universe given by a list of vectors, all of equal
// dimension, copied into one flat backing array at construction.
type Points struct {
	dim  int
	flat []float64
}

// NewPoints constructs a universe from explicit vectors. The vectors are
// copied, so the caller keeps ownership of the input slices.
func NewPoints(pts [][]float64) (*Points, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("universe: empty point list")
	}
	dim := len(pts[0])
	if dim == 0 {
		return nil, fmt.Errorf("universe: zero-dimensional points")
	}
	flat := make([]float64, 0, len(pts)*dim)
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("universe: point %d has dim %d, want %d", i, len(p), dim)
		}
		flat = append(flat, p...)
	}
	return &Points{dim: dim, flat: flat}, nil
}

// Size returns the number of points.
func (p *Points) Size() int { return len(p.flat) / p.dim }

// Point returns element i.
func (p *Points) Point(i int) []float64 { return p.flat[i*p.dim : (i+1)*p.dim : (i+1)*p.dim] }

// PointInto copies element i into buf without allocating.
func (p *Points) PointInto(i int, buf []float64) []float64 {
	buf = buf[:p.dim]
	copy(buf, p.flat[i*p.dim:(i+1)*p.dim])
	return buf
}

// PointsInto implements Block with one flat copy.
func (p *Points) PointsInto(lo, hi int, buf []float64) {
	copy(buf[:(hi-lo)*p.dim], p.flat[lo*p.dim:hi*p.dim])
}

// Dim returns the shared dimension.
func (p *Points) Dim() int { return p.dim }

// String describes the universe.
func (p *Points) String() string {
	return fmt.Sprintf("points dim=%d (|X|=%d)", p.dim, p.Size())
}

// Nearest returns the index of the universe element closest in Euclidean
// distance to v, breaking ties toward the smaller index. This is the
// rounding map of paper §1.1: continuous records are snapped onto X before
// any private computation sees them. Universes past the dense limit must
// be factored; for those the per-coordinate fast path computes the same
// minimizer without a sweep (squared distance over a product set decomposes
// coordinate by coordinate, and choosing the smallest level on a
// per-coordinate tie yields the smallest tied index).
func Nearest(u Universe, v []float64) int {
	if f, ok := u.(Factored); ok && u.Size() > DenseLimit {
		return nearestFactored(f, v)
	}
	best := math.Inf(1)
	bestIdx := 0
	buf := make([]float64, u.Dim())
	for i := 0; i < u.Size(); i++ {
		p := u.PointInto(i, buf)
		var d2 float64
		for j := range p {
			diff := p[j] - v[j]
			d2 += diff * diff
		}
		if d2 < best {
			best = d2
			bestIdx = i
		}
	}
	return bestIdx
}
