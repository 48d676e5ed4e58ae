package sparse

import (
	"fmt"

	"repro/internal/mech"
	"repro/internal/sample"
)

// NumericSV is the numeric variant of the online sparse vector algorithm
// (Dwork & Roth, "NumericSparse"): like SV it answers a stream of sensitive
// queries with ⊤/⊥, but each ⊤ additionally releases a fresh Laplace
// estimate of the query's value. Hardt–Rothblum's original online PMW for
// linear queries is built on exactly this primitive: the noisy value both
// answers the analyst and drives the multiplicative-weights update.
//
// The budget is split evenly between the threshold side (an SV run at
// ε/2, δ/2) and the T numeric releases (ε/2, δ/2 via the strong-composition
// schedule).
type NumericSV struct {
	sv       *SV
	src      *sample.Source
	epsValue float64 // per-release Laplace budget
	sens     float64
}

// NewNumeric starts a numeric sparse vector run with the given total
// budget. cfg.Sensitivity bounds both the threshold queries and the
// released values.
func NewNumeric(cfg Config, src *sample.Source) (*NumericSV, error) {
	if src == nil {
		return nil, fmt.Errorf("sparse: nil source")
	}
	half := cfg
	half.Eps = cfg.Eps / 2
	half.Delta = cfg.Delta / 2
	sv, err := New(half, src.Split())
	if err != nil {
		return nil, err
	}
	epsValue, _, err := mech.SplitBudget(cfg.Eps/2, cfg.Delta/2, cfg.T)
	if err != nil {
		return nil, err
	}
	return &NumericSV{sv: sv, src: src, epsValue: epsValue, sens: cfg.Sensitivity}, nil
}

// Query consumes the true threshold-query value and, on ⊤, releases a fresh
// (ε₀, 0)-DP Laplace estimate of `release` (which must have the same
// sensitivity bound as the threshold query; online PMW passes the query's
// true answer here while thresholding on the hypothesis discrepancy). On ⊥
// it returns (false, 0).
func (n *NumericSV) Query(value, release float64) (top bool, noisy float64, err error) {
	top, err = n.sv.Query(value)
	if err != nil {
		return false, 0, err
	}
	if !top {
		return false, 0, nil
	}
	noisy, err = mech.Laplace(n.src, release, n.sens, n.epsValue)
	if err != nil {
		return false, 0, err
	}
	return true, noisy, nil
}

// ReleaseEps returns the per-release Laplace budget ε₀ — each ⊤ answer's
// numeric release is (ε₀, 0)-DP, which budget ledgers record as a pure-DP
// spend.
func (n *NumericSV) ReleaseEps() float64 { return n.epsValue }

// Halted reports whether the underlying SV has stopped.
func (n *NumericSV) Halted() bool { return n.sv.Halted() }
