package erm

import (
	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/optimize"
	"repro/internal/sample"
)

// NonPrivate returns the exact empirical minimizer with no noise: the
// accuracy ceiling the oracle tests measure private answers against. It
// is NOT differentially private (it ignores ε and δ), which is why it lives
// only in the tests.
type NonPrivate struct{}

// Name implements Oracle.
func (o NonPrivate) Name() string { return "nonprivate" }

// Answer implements Oracle (ε and δ are ignored).
func (o NonPrivate) Answer(_ *sample.Source, l convex.Loss, data *dataset.Dataset, _, _ float64) ([]float64, error) {
	if err := ensureDenseData(o.Name(), data); err != nil {
		return nil, err
	}
	res, err := optimize.Minimize(l, data.Histogram(), optimize.Options{MaxIters: solverIters})
	if err != nil {
		return nil, err
	}
	return res.Theta, nil
}
