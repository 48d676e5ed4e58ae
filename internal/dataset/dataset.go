// Package dataset provides row-level datasets over finite universes and the
// synthetic workload generators used by the experiments.
//
// The paper evaluates nothing empirically, but its introduction motivates
// the query families with concrete analyses — linear regression, logistic
// regression, SVMs — over datasets of n individuals. The generators here
// produce exactly those shapes: ground-truth parameter θ*, features drawn
// from the universe, labels from the corresponding linear/logistic model,
// then rounded back onto the universe grid per §1.1.
package dataset

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/histogram"
	"repro/internal/sample"
	"repro/internal/universe"
)

// Dataset is an ordered collection of rows, each an index into a finite
// universe. Order matters only for defining adjacency (replace row j).
//
// A Dataset is immutable: U and Rows must not be modified after
// construction. That is what lets it own one histogram, built on the
// first Histogram call and shared by every caller, concurrent sessions
// included. Build datasets with New, Adjacent or SampleFrom, and pass them
// by pointer.
type Dataset struct {
	U    universe.Universe
	Rows []int

	histOnce sync.Once
	hist     *histogram.Histogram
}

// New validates row indices and wraps them.
func New(u universe.Universe, rows []int) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: no rows")
	}
	for j, r := range rows {
		if r < 0 || r >= u.Size() {
			return nil, fmt.Errorf("dataset: row %d index %d outside universe size %d", j, r, u.Size())
		}
	}
	return &Dataset{U: u, Rows: rows}, nil
}

// N returns the number of rows n.
func (d *Dataset) N() int { return len(d.Rows) }

// Histogram returns the histogram representation of the dataset. It is
// built from the rows once, on the first call, and every later call
// returns the same pointer; it is safe to call from many goroutines. The
// histogram is shared and read-only: callers must Clone it before
// modifying it. The first call costs O(n + |X|) and allocates |X| cells,
// so paths for universes too large to enumerate must not call it.
func (d *Dataset) Histogram() *histogram.Histogram {
	d.histOnce.Do(func() {
		h, err := histogram.FromRows(d.U, d.Rows)
		if err != nil {
			// Construction validated rows; a failure here is a programmer error.
			panic("dataset: invalid internal state: " + err.Error())
		}
		d.hist = h
	})
	return d.hist
}

// Adjacent returns the neighbouring dataset with row j replaced by universe
// element v.
func (d *Dataset) Adjacent(j, v int) *Dataset {
	return &Dataset{U: d.U, Rows: histogram.AdjacentRows(d.Rows, j, v)}
}

// SampleFrom draws n i.i.d. rows from the population distribution pop.
// This is the sampling model of §1.3 (generalization error experiments):
// pop is the unknown population, the result is the analyst's sample.
func SampleFrom(src *sample.Source, pop *histogram.Histogram, n int) *Dataset {
	return &Dataset{U: pop.U, Rows: pop.SampleRows(src, n)}
}

// LinearModel generates a linear-regression population over a labeled grid:
// features x are uniform over the feature grid, labels follow
// y = ⟨θ*, x⟩ + N(0, noise²), and the pair (x, y) is rounded to the nearest
// universe element. The returned histogram is the induced population
// distribution; sample from it with SampleFrom.
func LinearModel(src *sample.Source, g *universe.LabeledGrid, theta []float64, noise float64, draws int) (*histogram.Histogram, error) {
	if len(theta) != g.FeatureDim() {
		return nil, fmt.Errorf("dataset: theta dim %d != feature dim %d", len(theta), g.FeatureDim())
	}
	return modelPopulation(src, g, draws, func(x []float64) float64 {
		var dot float64
		for i, ti := range theta {
			dot += ti * x[i]
		}
		return dot + src.Gaussian(0, noise)
	})
}

// modelPopulation builds a population histogram by Monte-Carlo: draw a
// random universe feature pattern, compute a label, round (x, label) to the
// nearest universe element, and accumulate counts over `draws` repetitions.
func modelPopulation(src *sample.Source, g *universe.LabeledGrid, draws int, label func(x []float64) float64) (*histogram.Histogram, error) {
	if draws < 1 {
		return nil, fmt.Errorf("dataset: draws must be ≥ 1")
	}
	d := g.Dim()
	counts := make([]int, g.Size())
	point := make([]float64, d)
	for i := 0; i < draws; i++ {
		// Uniform universe element supplies the feature pattern; only its
		// label coordinate is replaced by the model's label.
		base := g.Point(src.Intn(g.Size()))
		copy(point, base)
		point[d-1] = label(base[:d-1])
		counts[universe.Nearest(g, point)]++
	}
	return histogram.FromCounts(g, counts)
}

// Skewed returns a Zipf-like population over u: element i gets weight
// 1/(i+1)^s. Skewed populations make the MW update's job non-trivial (the
// uniform prior D̂¹ is far from D in KL), exercising the full T-update
// budget of the algorithm.
func Skewed(u universe.Universe, s float64) (*histogram.Histogram, error) {
	if s < 0 {
		return nil, fmt.Errorf("dataset: skew exponent must be ≥ 0")
	}
	p := make([]float64, u.Size())
	var z float64
	for i := range p {
		p[i] = 1 / math.Pow(float64(i+1), s)
		z += p[i]
	}
	for i := range p {
		p[i] /= z
	}
	return histogram.FromProbs(u, p)
}

// PointMass returns the population concentrated on a single universe
// element — the adversarial extreme for MW (maximal initial KL).
func PointMass(u universe.Universe, idx int) (*histogram.Histogram, error) {
	if idx < 0 || idx >= u.Size() {
		return nil, fmt.Errorf("dataset: point-mass index %d outside universe size %d", idx, u.Size())
	}
	p := make([]float64, u.Size())
	p[idx] = 1
	return histogram.FromProbs(u, p)
}
