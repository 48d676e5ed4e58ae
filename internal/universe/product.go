// Product is the implicit product universe: per-coordinate factor value
// lists only, no stored point matrix, so |X| = Π_j len(factor_j) can be
// astronomically past the dense limit while the universe costs O(Σ_j
// len(factor_j)) memory. Point vectors are synthesized on demand; block
// sweeps decode with an odometer walk.
package universe

import (
	"fmt"
	"math"
)

// Product is a universe X = F_0 × F_1 × ... × F_{d-1} given by explicit
// per-coordinate value lists, indexed in mixed radix with coordinate 0
// fastest-varying (the Factored convention). Nothing of size |X| is ever
// allocated.
type Product struct {
	factors [][]float64
	size    int
	desc    string
}

// NewProductHypercube constructs {±1/√d}^d as an implicit product
// universe. The index convention (bit j of i selects the sign of
// coordinate j, set bit = +1/√d) and the coordinate values are
// bit-identical to NewHypercube, so the two representations agree
// pointwise wherever both exist; d may go far past the dense cap (up to
// 52) because nothing of size 2^d is materialized.
func NewProductHypercube(d int) (*Product, error) {
	if d < 1 || d > 52 {
		return nil, fmt.Errorf("universe: product hypercube dimension %d outside [1,52]", d)
	}
	scale := 1 / math.Sqrt(float64(d))
	factors := make([][]float64, d)
	for j := range factors {
		factors[j] = []float64{-scale, scale}
	}
	size := 1 << uint(d)
	return &Product{
		factors: factors,
		size:    size,
		desc:    fmt.Sprintf("hypercube{±1/√%d}^%d (|X|=%d, implicit)", d, d, size),
	}, nil
}

// Size returns Π_j len(factor_j).
func (p *Product) Size() int { return p.size }

// Dim returns the number of factors.
func (p *Product) Dim() int { return len(p.factors) }

// Point synthesizes element i (allocates; use PointInto in hot loops).
func (p *Product) Point(i int) []float64 {
	return p.PointInto(i, make([]float64, len(p.factors)))
}

// PointInto decodes element i into buf by mixed-radix digit extraction.
func (p *Product) PointInto(i int, buf []float64) []float64 {
	buf = buf[:len(p.factors)]
	for j, f := range p.factors {
		buf[j] = f[i%len(f)]
		i /= len(f)
	}
	return buf
}

// PointsInto implements Block with an odometer walk: the level vector of
// element lo is decoded once, then incremented per element, so the
// amortized cost per point is O(Dim) with no division past the first
// element.
func (p *Product) PointsInto(lo, hi int, buf []float64) {
	d := len(p.factors)
	levels := make([]int, d)
	rem := lo
	for j, f := range p.factors {
		levels[j] = rem % len(f)
		rem /= len(f)
	}
	for i := lo; i < hi; i++ {
		row := buf[(i-lo)*d : (i-lo+1)*d]
		for j, f := range p.factors {
			row[j] = f[levels[j]]
		}
		// Odometer increment: bump coordinate 0, carry into slower digits.
		for j := 0; j < d; j++ {
			levels[j]++
			if levels[j] < len(p.factors[j]) {
				break
			}
			levels[j] = 0
		}
	}
}

// Levels implements Factored.
func (p *Product) Levels(coord int) int { return len(p.factors[coord]) }

// CoordValue implements Factored.
func (p *Product) CoordValue(coord, level int) float64 { return p.factors[coord][level] }

// String describes the universe.
func (p *Product) String() string { return p.desc }
