// Factored-universe capability: product structure exposed coordinate by
// coordinate, plus the helpers the factored evaluation engine builds on
// (digit decoding, support sub-universes, and the sweep-free Nearest).
package universe

import (
	"fmt"
	"math"
)

// Factored is the product-structure capability: a universe whose elements
// are exactly the tuples of per-coordinate values, indexed in mixed radix
// with coordinate 0 fastest-varying. Element index i decodes as
//
//	level_j = (i / Π_{k<j} Levels(k)) mod Levels(j)
//	Point(i)[j] = CoordValue(j, level_j)
//
// which matches the stored layouts of Hypercube (bit j of i) and
// LabeledGrid (base-levels digits, label last). The factored engine uses
// this to answer losses supported on few coordinates by enumerating only
// the small sub-cube over those coordinates.
type Factored interface {
	Universe
	// Levels returns the number of distinct values of coordinate coord.
	Levels(coord int) int
	// CoordValue returns the vector value of coordinate coord at the
	// given level, 0 ≤ level < Levels(coord). The returned float must be
	// bit-identical to the corresponding entry of Point vectors.
	CoordValue(coord, level int) float64
}

// DigitsInto decodes element index i of f into per-coordinate levels,
// writing Levels-radix digits (coordinate 0 first) into buf and returning
// buf[:Dim()].
func DigitsInto(f Factored, i int, buf []int) []int {
	d := f.Dim()
	buf = buf[:d]
	for j := 0; j < d; j++ {
		l := f.Levels(j)
		buf[j] = i % l
		i /= l
	}
	return buf
}

// ComposeIndex is the inverse of DigitsInto: it packs per-coordinate
// levels (one per dimension, coordinate 0 fastest-varying) into the
// element index.
func ComposeIndex(f Factored, digits []int) int {
	idx := 0
	stride := 1
	for j := 0; j < f.Dim(); j++ {
		idx += digits[j] * stride
		stride *= f.Levels(j)
	}
	return idx
}

// ProjectIndex returns the sub-cube index (in SupportLevelsInto
// convention) of element i's levels at the given coordinates. buf is
// scratch of length ≥ Dim().
func ProjectIndex(f Factored, coords []int, i int, buf []int) int {
	digits := DigitsInto(f, i, buf)
	idx := 0
	stride := 1
	for _, c := range coords {
		idx += digits[c] * stride
		stride *= f.Levels(c)
	}
	return idx
}

// SupportSize returns the number of joint level assignments of the given
// coordinates, Π_j Levels(coords[j]), or an error if it would overflow the
// dense limit (support sub-cubes are materialized densely).
func SupportSize(f Factored, coords []int) (int, error) {
	size := 1
	for _, c := range coords {
		size *= f.Levels(c)
		if size > DenseLimit {
			return 0, fmt.Errorf("universe: support %v of %s has > 2^22 assignments: %w", coords, f.String(), ErrTooLarge)
		}
	}
	return size, nil
}

// SupportLevelsInto decodes a sub-cube index back into per-coordinate
// levels aligned with coords. The index is mixed radix with coords[0]
// fastest-varying, the same convention as the full universe.
func SupportLevelsInto(f Factored, coords []int, idx int, buf []int) []int {
	buf = buf[:len(coords)]
	for j, c := range coords {
		l := f.Levels(c)
		buf[j] = idx % l
		idx /= l
	}
	return buf
}

// SupportUniverse materializes the sub-cube of f spanned by the given
// coordinates as an explicit Points universe of full-dimension vectors:
// the support coordinates enumerate all their joint values (coords[0]
// fastest-varying, matching SupportLevelsInto), and every other coordinate is
// pinned at its level-0 value. Losses supported on coords take the same
// values on this embedding as on the full universe, so the dense
// minimization and evaluation machinery runs on it unchanged — that is
// the whole trick of the factored engine.
func SupportUniverse(f Factored, coords []int) (*Points, error) {
	dim := f.Dim()
	seen := make(map[int]bool, len(coords))
	for _, c := range coords {
		if c < 0 || c >= dim {
			return nil, fmt.Errorf("universe: support coordinate %d outside [0,%d)", c, dim)
		}
		if seen[c] {
			return nil, fmt.Errorf("universe: duplicate support coordinate %d", c)
		}
		seen[c] = true
	}
	size, err := SupportSize(f, coords)
	if err != nil {
		return nil, err
	}
	base := make([]float64, dim)
	for j := 0; j < dim; j++ {
		base[j] = f.CoordValue(j, 0)
	}
	flat := make([]float64, size*dim)
	levels := make([]int, len(coords))
	for i := 0; i < size; i++ {
		p := flat[i*dim : (i+1)*dim]
		copy(p, base)
		SupportLevelsInto(f, coords, i, levels)
		for j, c := range coords {
			p[c] = f.CoordValue(c, levels[j])
		}
	}
	return &Points{dim: dim, flat: flat}, nil
}

// nearestFactored minimizes squared distance coordinate by coordinate:
// over a product set, Σ_j (x_j − v_j)² decomposes, and picking the
// smallest level on a per-coordinate tie yields the smallest tied global
// index (levels are index digits with coordinate 0 fastest).
func nearestFactored(f Factored, v []float64) int {
	idx := 0
	stride := 1
	for j := 0; j < f.Dim(); j++ {
		l := f.Levels(j)
		best := math.Inf(1)
		bestLevel := 0
		for lev := 0; lev < l; lev++ {
			diff := f.CoordValue(j, lev) - v[j]
			if d2 := diff * diff; d2 < best {
				best = d2
				bestLevel = lev
			}
		}
		idx += bestLevel * stride
		stride *= l
	}
	return idx
}
