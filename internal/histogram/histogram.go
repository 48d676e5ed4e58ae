// Package histogram implements the histogram representation of datasets
// from paper §2.1: a dataset D ∈ X^n is viewed as a probability vector over
// the finite universe X, where entry x holds the fraction of rows equal
// to x. Adjacent datasets (differing in one row) have histograms at L1
// distance ≤ 2/n — each such swap moves 1/n of mass between two cells — and
// the paper's ‖D−D′‖₁ ≤ 1/n per-cell bound is the per-coordinate view of
// the same fact. The sensitivity arithmetic in mech and sparse builds on
// this representation.
package histogram

import (
	"fmt"
	"math"

	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/vecmath"
)

// Histogram is a probability distribution over the elements of a finite
// universe. P[i] is the probability of universe element i; entries are
// non-negative and sum to 1 (within floating-point tolerance, see Validate).
type Histogram struct {
	U universe.Universe
	P []float64
}

// tol is the normalization tolerance accepted by Validate. It is loose
// enough to absorb summation error over universes of size up to ~2^22.
const tol = 1e-9

// Uniform returns the uniform histogram over u — the algorithm's starting
// hypothesis D̂¹ in paper Figure 3.
func Uniform(u universe.Universe) *Histogram {
	n := u.Size()
	p := make([]float64, n)
	v := 1 / float64(n)
	for i := range p {
		p[i] = v
	}
	return &Histogram{U: u, P: p}
}

// FromCounts returns the histogram of a dataset given per-element counts.
// Total count must be positive.
func FromCounts(u universe.Universe, counts []int) (*Histogram, error) {
	if len(counts) != u.Size() {
		return nil, fmt.Errorf("histogram: %d counts for universe of size %d", len(counts), u.Size())
	}
	var total int
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("histogram: negative count %d at %d", c, i)
		}
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("histogram: empty dataset")
	}
	p := make([]float64, len(counts))
	for i, c := range counts {
		p[i] = float64(c) / float64(total)
	}
	return &Histogram{U: u, P: p}, nil
}

// FromRows returns the histogram of a dataset given as row indices into u.
func FromRows(u universe.Universe, rows []int) (*Histogram, error) {
	size := u.Size()
	counts := make([]int, size)
	for j, r := range rows {
		if r < 0 || r >= size {
			return nil, fmt.Errorf("histogram: row %d has index %d outside universe of size %d", j, r, size)
		}
		counts[r]++
	}
	return FromCounts(u, counts)
}

// FromProbs wraps an explicit probability vector after validating it.
func FromProbs(u universe.Universe, p []float64) (*Histogram, error) {
	h := &Histogram{U: u, P: p}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// Validate checks non-negativity and unit total mass.
func (h *Histogram) Validate() error {
	if len(h.P) != h.U.Size() {
		return fmt.Errorf("histogram: length %d != universe size %d", len(h.P), h.U.Size())
	}
	for i, v := range h.P {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("histogram: invalid probability %v at %d", v, i)
		}
	}
	if s := vecmath.Sum(h.P); math.Abs(s-1) > tol {
		return fmt.Errorf("histogram: total mass %v != 1", s)
	}
	return nil
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{U: h.U, P: vecmath.Copy(h.P)}
}

// L1 returns ‖h − g‖₁. Total-variation distance is L1/2.
func (h *Histogram) L1(g *Histogram) float64 { return vecmath.Dist1(h.P, g.P) }

// KL returns the Kullback–Leibler divergence KL(g ‖ h) = Σ g(x) log(g(x)/h(x)).
// This is the multiplicative-weights potential Ψ(g, h): Lemma 3.4's regret
// bound is exactly the statement that each MW update decreases KL(D ‖ D̂t)
// by a quantifiable amount. Returns +Inf when g puts mass where h has none.
func (h *Histogram) KL(g *Histogram) float64 {
	var s float64
	for i := range h.P {
		gi := g.P[i]
		if gi == 0 {
			continue
		}
		if h.P[i] == 0 {
			return math.Inf(1)
		}
		s += gi * math.Log(gi/h.P[i])
	}
	// Guard tiny negative values from rounding when g ≈ h.
	if s < 0 && s > -1e-12 {
		return 0
	}
	return s
}

// SampleRows draws n i.i.d. rows (universe indices). Row i is what the
// i-th of n successive src.Categorical(h.P) calls would return; the
// sampler builds the cumulative sums once, so the cost is
// O(|X| + n·log|X|) instead of O(n·|X|).
func (h *Histogram) SampleRows(src *sample.Source, n int) []int {
	rows := make([]int, n)
	src.CategoricalInto(rows, h.P)
	return rows
}

// AdjacentRows returns a copy of rows with row j replaced by element v —
// the neighbouring dataset D′ ~ D used throughout the privacy analysis.
func AdjacentRows(rows []int, j, v int) []int {
	out := make([]int, len(rows))
	copy(out, rows)
	out[j] = v
	return out
}
