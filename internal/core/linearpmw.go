package core

import (
	"fmt"
	"math"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/mech"
	"repro/internal/mw"
	"repro/internal/sample"
	"repro/internal/sparse"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// LinearPMW is Hardt–Rothblum's original online private multiplicative
// weights mechanism for *linear* queries (FOCS 2010) — the algorithm the
// paper generalizes. It is included both as the natural specialization
// (experiments check that the CM generalization matches its behaviour on
// linear workloads) and as a direct, faster path for counting queries.
//
// Per query q : X → [0, 1]:
//
//  1. compute the hypothesis answer â = ⟨q, D̂t⟩ and the true answer
//     a = ⟨q, D⟩; feed the discrepancy |a − â| (sensitivity 1/n) to the
//     numeric sparse vector algorithm;
//  2. on ⊥, answer â (no privacy cost);
//  3. on ⊤, receive a fresh Laplace release ã of the true answer, answer
//     ã, and update the hypothesis multiplicatively: penalize records with
//     q(x) = 1 when â > ã and reward them when â < ã.
type LinearPMW struct {
	cfg   LinearPMWConfig
	data  *dataset.Dataset
	nsv   *sparse.NumericSV
	state *mw.State
	eng   *xeval.Engine
	acct  mech.Accountant
}

// LinearPMWConfig parameterizes LinearPMW.
type LinearPMWConfig struct {
	// Eps, Delta is the total privacy budget.
	Eps, Delta float64
	// Alpha is the per-answer error target (in answer units, not excess
	// risk: |released − true| ≲ α).
	Alpha float64
	// K caps the number of queries.
	K int
	// TBudget overrides the update horizon (default: the paper's
	// 16·log|X|/α², the linear-query specialization of Figure 3's T with
	// S = 1 and the α/2 update threshold measured in answer units).
	TBudget int
	// Workers sets the xeval worker count (0 = all CPUs, negative
	// rejected; see core.Config.Workers).
	Workers int
	// Accountant names the accounting strategy tracking the run's spends
	// (see core.Config.Accountant). The HR10 mechanism is Laplace-based
	// (pure-DP spends), so "zcdp" converts via ρ = ε²/2 and offers no
	// advantage here; the NumericSV schedule fixes the released values for
	// every accountant.
	Accountant string
}

func (c LinearPMWConfig) validate() error {
	if err := (mech.Params{Eps: c.Eps, Delta: c.Delta}).Validate(); err != nil {
		return err
	}
	if c.Delta == 0 {
		return fmt.Errorf("core: LinearPMW requires delta > 0")
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v must be in (0, 1]", c.Alpha)
	}
	if c.K < 1 {
		return fmt.Errorf("core: K %d must be ≥ 1", c.K)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: workers %d: %w", c.Workers, ErrInvalidWorkers)
	}
	return nil
}

// NewLinearPMW constructs the HR10 server over the given private dataset.
func NewLinearPMW(cfg LinearPMWConfig, data *dataset.Dataset, src *sample.Source) (*LinearPMW, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if data == nil || data.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil random source")
	}
	xsize := data.U.Size()
	T := mw.UpdateBudget(1, cfg.Alpha, xsize)
	if cfg.TBudget > 0 {
		T = cfg.TBudget
	}
	nsv, err := sparse.NewNumeric(sparse.Config{
		T:           T,
		K:           cfg.K,
		Alpha:       cfg.Alpha,
		Eps:         cfg.Eps,
		Delta:       cfg.Delta,
		Sensitivity: 1 / float64(data.N()),
	}, src.Split())
	if err != nil {
		return nil, err
	}
	// validate() rejected negatives; xeval.New maps 0 to runtime.NumCPU().
	eng := xeval.New(cfg.Workers)
	state, err := mw.New(data.U, mw.Eta(1, T, xsize), 1)
	if err != nil {
		return nil, err
	}
	state.SetEngine(eng)
	// The threshold half of NumericSV does its own internal accounting
	// ((ε/2, δ/2) slice, Theorem 3.1); the T numeric releases are recorded
	// individually as pure-DP spends.
	acct, err := mech.NewAccountant(cfg.Accountant, mech.Params{Eps: cfg.Eps, Delta: cfg.Delta})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := acct.Reserve(mech.Params{Eps: cfg.Eps / 2, Delta: cfg.Delta / 2}); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &LinearPMW{
		cfg:   cfg,
		data:  data,
		nsv:   nsv,
		state: state,
		eng:   eng,
		acct:  acct,
	}, nil
}

// Answer releases a private answer to the linear query. It returns
// ErrHalted once the update or query budget is exhausted.
func (p *LinearPMW) Answer(q *convex.LinearQuery) (float64, error) {
	if p.nsv.Halted() {
		return 0, ErrHalted
	}
	u := p.data.U
	qvec := make([]float64, u.Size())
	// Materialize the query vector chunk-parallel; range violations fold
	// into a NaN sentinel so the (cold) error path can stay serial.
	bad, _ := p.eng.Max(u.Size(), func(lo, hi int) float64 {
		buf := make([]float64, u.Dim())
		worst := 0.0
		for i := lo; i < hi; i++ {
			v := q.Predicate(u.PointInto(i, buf))
			if v < 0 || v > 1 {
				worst = math.Inf(1)
			}
			qvec[i] = v
		}
		return worst
	})
	if math.IsInf(bad, 1) {
		buf := make([]float64, u.Dim())
		for i := 0; i < u.Size(); i++ {
			if v := q.Predicate(u.PointInto(i, buf)); v < 0 || v > 1 {
				return 0, fmt.Errorf("core: predicate value %v outside [0,1]", v)
			}
		}
	}
	hyp := p.state.Histogram()
	hypAns := vecmath.Dot(qvec, hyp.P)
	trueAns := vecmath.Dot(qvec, p.data.Histogram().P)
	disc := trueAns - hypAns
	abs := disc
	if abs < 0 {
		abs = -abs
	}
	top, noisy, err := p.nsv.Query(abs, trueAns)
	if err != nil {
		if err == sparse.ErrHalted {
			return 0, ErrHalted
		}
		return 0, err
	}
	if !top {
		return hypAns, nil
	}
	if err := p.acct.Spend(mech.PureCost(p.nsv.ReleaseEps())); err != nil {
		return 0, fmt.Errorf("core: recording release spend: %w", err)
	}
	noisy = vecmath.Clamp(noisy, 0, 1)
	// MW update: penalty on q's support when the hypothesis over-answers.
	uvec := qvec
	if hypAns < noisy {
		uvec = vecmath.Scale(-1, qvec)
	}
	if err := p.state.Update(uvec); err != nil {
		return 0, err
	}
	return noisy, nil
}

// Updates returns the number of MW updates performed.
func (p *LinearPMW) Updates() int { return p.state.Updates() }

// MWEMConfig parameterizes the classic offline MWEM algorithm of
// Hardt–Ligett–McSherry (NIPS 2012) for linear queries: per round, the
// exponential mechanism selects the worst-answered query, the Laplace
// mechanism releases its answer, and the hypothesis takes one MW step
// toward matching it.
type MWEMConfig struct {
	// Eps, Delta is the total privacy budget (Delta may be 0: MWEM can
	// run under pure DP with basic composition).
	Eps, Delta float64
	// Rounds is the number of select-measure-update rounds.
	Rounds int
}

// MWEMResult bundles MWEM's outputs.
type MWEMResult struct {
	// Answers[i] answers queries[i] on the final hypothesis.
	Answers []float64
	// Hypothesis is the final public histogram.
	Hypothesis *histogram.Histogram
	// Selected records the chosen query index per round.
	Selected []int
}

// MWEM runs classic MWEM on a known set of linear queries.
func MWEM(cfg MWEMConfig, data *dataset.Dataset, src *sample.Source, queries []*convex.LinearQuery) (*MWEMResult, error) {
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("core: rounds %d must be ≥ 1", cfg.Rounds)
	}
	if err := (mech.Params{Eps: cfg.Eps, Delta: cfg.Delta}).Validate(); err != nil {
		return nil, err
	}
	if data == nil || data.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: no queries")
	}
	u := data.U
	// Pure-DP budget split: 2·Rounds mechanisms under basic composition
	// when Delta = 0, strong composition otherwise.
	var eps0 float64
	if cfg.Delta == 0 {
		eps0 = cfg.Eps / float64(2*cfg.Rounds)
	} else {
		var err error
		eps0, _, err = mech.SplitBudget(cfg.Eps, cfg.Delta, 2*cfg.Rounds)
		if err != nil {
			return nil, err
		}
	}
	sens := 1 / float64(data.N())

	// Precompute query vectors.
	qvecs := make([][]float64, len(queries))
	for i, q := range queries {
		qv := make([]float64, u.Size())
		for j := range qv {
			v := q.Predicate(u.Point(j))
			if v < 0 || v > 1 {
				return nil, fmt.Errorf("core: predicate value %v outside [0,1]", v)
			}
			qv[j] = v
		}
		qvecs[i] = qv
	}
	priv := data.Histogram()
	state, err := mw.New(u, mw.Eta(1, cfg.Rounds, u.Size()), 1)
	if err != nil {
		return nil, err
	}
	selected := make([]int, 0, cfg.Rounds)
	for round := 0; round < cfg.Rounds; round++ {
		hyp := state.Histogram()
		scores := make([]float64, len(queries))
		for i, qv := range qvecs {
			d := vecmath.Dot(qv, priv.P) - vecmath.Dot(qv, hyp.P)
			if d < 0 {
				d = -d
			}
			scores[i] = d
		}
		idx, err := mech.Exponential(src, scores, sens, eps0)
		if err != nil {
			return nil, err
		}
		selected = append(selected, idx)
		noisy, err := mech.Laplace(src, vecmath.Dot(qvecs[idx], priv.P), sens, eps0)
		if err != nil {
			return nil, err
		}
		noisy = vecmath.Clamp(noisy, 0, 1)
		uvec := qvecs[idx]
		if vecmath.Dot(qvecs[idx], hyp.P) < noisy {
			uvec = vecmath.Scale(-1, qvecs[idx])
		}
		if err := state.Update(uvec); err != nil {
			return nil, err
		}
	}
	final := state.Histogram()
	answers := make([]float64, len(queries))
	for i, qv := range qvecs {
		answers[i] = vecmath.Dot(qv, final.P)
	}
	return &MWEMResult{Answers: answers, Hypothesis: final.Clone(), Selected: selected}, nil
}
