// Package baseline implements the straw-man answering strategies the paper
// compares against in prose (§1, §4.1):
//
//   - Composition: answer each of the k CM queries independently with the
//     single-query oracle A′, splitting the (ε, δ) budget across all k
//     calls via the strong-composition schedule. Its per-query budget
//     shrinks like 1/√k, so accuracy degrades polynomially in k — the
//     behaviour PMW's polylog(k) dependence beats (paper Table 1).
//   - Exact: the non-private exact answers, an accuracy ceiling.
package baseline

import (
	"fmt"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/mech"
	"repro/internal/optimize"
	"repro/internal/sample"
)

// Composition answers each query with an independent oracle call at budget
// (ε₀, δ₀) = SplitBudget(ε, δ, k), so the whole interaction is (ε, δ)-DP by
// Theorem 3.10. Queries may arrive online; there is no shared state.
type Composition struct {
	// Oracle is the single-query algorithm A′.
	Oracle erm.Oracle
	// Eps, Delta is the total budget; K the number of queries it is
	// split across.
	Eps, Delta float64
	K          int

	eps0, delta0 float64
	answered     int
}

// NewComposition validates parameters and precomputes the per-query budget.
func NewComposition(oracle erm.Oracle, eps, delta float64, k int) (*Composition, error) {
	if oracle == nil {
		return nil, fmt.Errorf("baseline: nil oracle")
	}
	if k < 1 {
		return nil, fmt.Errorf("baseline: k %d must be ≥ 1", k)
	}
	if delta <= 0 {
		return nil, fmt.Errorf("baseline: composition baseline requires delta > 0")
	}
	eps0, delta0, err := mech.SplitBudget(eps, delta, k)
	if err != nil {
		return nil, err
	}
	return &Composition{Oracle: oracle, Eps: eps, Delta: delta, K: k, eps0: eps0, delta0: delta0}, nil
}

// Answer answers the next query. It refuses to exceed the declared k.
func (c *Composition) Answer(src *sample.Source, l convex.Loss, data *dataset.Dataset) ([]float64, error) {
	if c.answered >= c.K {
		return nil, fmt.Errorf("baseline: budget exhausted after %d queries", c.K)
	}
	c.answered++
	return c.Oracle.Answer(src, l, data, c.eps0, c.delta0)
}

// exactSolverIters bounds Exact's solve.
const exactSolverIters = 800

// Exact answers queries with the true empirical minimizer (non-private).
type Exact struct{}

// Answer returns the exact minimizer of l on data.
func (e Exact) Answer(l convex.Loss, data *dataset.Dataset) ([]float64, error) {
	res, err := optimize.Minimize(l, data.Histogram(), optimize.Options{MaxIters: exactSolverIters})
	if err != nil {
		return nil, err
	}
	return res.Theta, nil
}
