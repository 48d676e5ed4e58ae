// Package workload provides canonical query workloads from the private
// query-release literature, as families of CM queries:
//
//   - width-w marginals (conjunctions) on sign-encoded universes — the
//     workload most of the efficient-release literature the paper cites
//     (§4.3: [GHRU11, HRS12, TUV12, CTUW14]) is about;
//   - parity queries, the hard case for many release algorithms;
//   - random halfspace (threshold) queries;
//   - the regression/classification CM workloads used across the
//     experiments (random-target squared losses, logistic families).
//
// All generators are deterministic given their sample.Source.
package workload

import (
	"fmt"
	"math"

	"repro/internal/convex"
	"repro/internal/sample"
	"repro/internal/universe"
)

// Marginals returns the width-w marginal (conjunction) queries over the
// first featDim coordinates of the universe's records: for each w-subset S
// of coordinates and sign pattern s ∈ {±1}^w,
//
//	q_{S,s}(x) = 1 iff sign(x_j) = s_j for every j ∈ S.
//
// The count is C(featDim, w)·2^w; maxQueries (when > 0) truncates
// deterministically. Records are sign-encoded: a coordinate's sign carries
// the attribute value (as in the hypercube universe {±1/√d}^d).
func Marginals(featDim, w, maxQueries int) ([]*convex.LinearQuery, error) {
	if w < 1 || w > featDim {
		return nil, fmt.Errorf("workload: width %d outside [1, %d]", w, featDim)
	}
	var out []*convex.LinearQuery
	subsets := combinations(featDim, w)
	for _, subset := range subsets {
		for pattern := 0; pattern < 1<<uint(w); pattern++ {
			subset := append([]int(nil), subset...)
			pattern := pattern
			name := fmt.Sprintf("marginal%v/%b", subset, pattern)
			q, err := convex.NewLinearQuery(name, func(x []float64) float64 {
				for bit, j := range subset {
					want := pattern>>uint(bit)&1 == 1
					if (x[j] > 0) != want {
						return 0
					}
				}
				return 1
			})
			if err != nil {
				return nil, err
			}
			out = append(out, q.WithSupport(subset))
			if maxQueries > 0 && len(out) >= maxQueries {
				return out, nil
			}
		}
	}
	return out, nil
}

// combinations enumerates all w-subsets of {0, …, n−1} in lexicographic
// order.
func combinations(n, w int) [][]int {
	var out [][]int
	idx := make([]int, w)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		// Advance.
		i := w - 1
		for i >= 0 && idx[i] == n-w+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < w; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Parities returns parity queries over sign-encoded records: for each
// subset S in the provided list, q_S(x) = 1 iff ∏_{j∈S} sign(x_j) = +1.
func Parities(subsets [][]int) ([]*convex.LinearQuery, error) {
	out := make([]*convex.LinearQuery, 0, len(subsets))
	for i, subset := range subsets {
		if len(subset) == 0 {
			return nil, fmt.Errorf("workload: parity subset %d is empty", i)
		}
		subset := append([]int(nil), subset...)
		q, err := convex.NewLinearQuery(fmt.Sprintf("parity%v", subset), func(x []float64) float64 {
			neg := false
			for _, j := range subset {
				if x[j] < 0 {
					neg = !neg
				}
			}
			if neg {
				return 0
			}
			return 1
		})
		if err != nil {
			return nil, err
		}
		out = append(out, q.WithSupport(subset))
	}
	return out, nil
}

// RandomParities returns k parity queries over random subsets of
// {0, …, featDim−1} with sizes in [1, maxWidth].
func RandomParities(src *sample.Source, featDim, maxWidth, k int) ([]*convex.LinearQuery, error) {
	if maxWidth < 1 || maxWidth > featDim {
		return nil, fmt.Errorf("workload: maxWidth %d outside [1, %d]", maxWidth, featDim)
	}
	subsets := make([][]int, k)
	for i := range subsets {
		w := 1 + src.Intn(maxWidth)
		perm := src.Perm(featDim)
		subsets[i] = perm[:w]
	}
	return Parities(subsets)
}

// Halfspaces returns k random threshold counting queries
// q(x) = 1{⟨w, x⟩ ≥ t} with w uniform on the sphere and t small.
func Halfspaces(src *sample.Source, u universe.Universe, k int) ([]*convex.LinearQuery, error) {
	out := make([]*convex.LinearQuery, 0, k)
	for i := 0; i < k; i++ {
		w := src.UnitVec(u.Dim())
		thresh := (src.Float64() - 0.5) * 0.5
		q, err := convex.NewLinearQuery(fmt.Sprintf("halfspace%d", i), func(x []float64) float64 {
			var s float64
			for j := range w {
				s += w[j] * x[j]
			}
			if s >= thresh {
				return 1
			}
			return 0
		})
		if err != nil {
			return nil, err
		}
		supp := make([]int, 0, len(w))
		for j, wj := range w {
			if wj != 0 {
				supp = append(supp, j)
			}
		}
		out = append(out, q.WithSupport(supp))
	}
	return out, nil
}

// Regressions returns k random-target squared-loss CM queries over a
// labeled grid: query i asks for the least-squares predictor of the random
// attribute ⟨aᵢ, x⟩ from the features.
func Regressions(src *sample.Source, g *universe.LabeledGrid, k int) ([]convex.Loss, error) {
	ball, err := convex.NewL2Ball(g.FeatureDim(), 1)
	if err != nil {
		return nil, err
	}
	featBound := 1.0
	targetBound := math.Sqrt(2)
	out := make([]convex.Loss, 0, k)
	for i := 0; i < k; i++ {
		a := src.UnitVec(g.Dim())
		sq, err := convex.NewSquared(fmt.Sprintf("regress%d", i), ball, a, featBound, targetBound)
		if err != nil {
			return nil, err
		}
		out = append(out, sq)
	}
	return out, nil
}

// AsLosses upcasts typed linear queries to the generic Loss interface.
func AsLosses(qs []*convex.LinearQuery) []convex.Loss {
	out := make([]convex.Loss, len(qs))
	for i, q := range qs {
		out[i] = q
	}
	return out
}
