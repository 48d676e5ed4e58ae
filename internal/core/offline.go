package core

import (
	"fmt"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/histogram"
	"repro/internal/mech"
	"repro/internal/mw"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// OfflineConfig parameterizes the offline (batch) variant of PMW for CM
// queries, in the style of the offline PMW / MWEM line of work
// ([GHRU11, GRU12, HLM12]) that paper §1.2 sketches: all k losses are known
// up front, each round privately selects the query the hypothesis answers
// worst (exponential mechanism), asks the oracle for that query's private
// answer, and applies the same dual-certificate MW update as the online
// algorithm. After Rounds rounds, every query is answered from the final
// public hypothesis.
type OfflineConfig struct {
	// Eps, Delta is the total privacy budget.
	Eps, Delta float64
	// Rounds is the number of select-and-update rounds T.
	Rounds int
	// S is the loss family's scale parameter.
	S float64
	// Oracle is the single-query algorithm A′.
	Oracle erm.Oracle
	// Workers sets the xeval worker count (0 = all CPUs, negative
	// rejected; see core.Config.Workers).
	Workers int
	// Accountant names the accounting strategy used to track the run's
	// spends (see core.Config.Accountant). The offline schedule itself is
	// fixed — 2·Rounds mechanisms under the Theorem-3.10 split, so the
	// (Eps, Delta) guarantee holds for every accountant — but the recorded
	// composition (OfflineResult.Accounted) is tighter under "zcdp" when
	// the oracle is Gaussian-based.
	Accountant string
}

func (c OfflineConfig) validate() error {
	if err := (mech.Params{Eps: c.Eps, Delta: c.Delta}).Validate(); err != nil {
		return err
	}
	if c.Delta == 0 {
		return fmt.Errorf("core: offline variant requires delta > 0")
	}
	if c.Rounds < 1 {
		return fmt.Errorf("core: rounds %d must be ≥ 1", c.Rounds)
	}
	if c.S <= 0 {
		return fmt.Errorf("core: scale S %v must be positive", c.S)
	}
	if c.Oracle == nil {
		return fmt.Errorf("core: nil oracle")
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: workers %d: %w", c.Workers, ErrInvalidWorkers)
	}
	return nil
}

// OfflineResult bundles the offline run's outputs.
type OfflineResult struct {
	// Answers[i] answers losses[i], computed on the final hypothesis.
	Answers [][]float64
	// Hypothesis is the final public histogram — a DP synthetic dataset.
	Hypothesis *histogram.Histogram
	// Selected records which loss index was chosen in each round.
	Selected []int
	// Accountant is the accounting mode; Accounted the composed (ε, δ)
	// bound of the recorded spends under it. The schedule guarantee
	// (cfg.Eps, cfg.Delta) holds regardless.
	Accountant string
	Accounted  mech.Params
}

// AnswerOffline runs the offline PMW-for-CM algorithm on a known query set.
func AnswerOffline(cfg OfflineConfig, data *dataset.Dataset, src *sample.Source, losses []convex.Loss) (*OfflineResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if data == nil || data.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if len(losses) == 0 {
		return nil, fmt.Errorf("core: no queries")
	}
	for _, l := range losses {
		if got := convex.ScaleBound(l); got > cfg.S+1e-9 {
			return nil, fmt.Errorf("core: query %q scale bound %v exceeds S = %v", l.Name(), got, cfg.S)
		}
	}

	// 2 mechanisms per round (selection + oracle) under strong composition.
	eps0, delta0, err := mech.SplitBudget(cfg.Eps, cfg.Delta, 2*cfg.Rounds)
	if err != nil {
		return nil, err
	}
	// Every privacy spend goes through an Accountant: the schedule above
	// fixes the per-call budgets, the accountant records what each
	// mechanism actually certifies (exponential selections are pure-DP,
	// Gaussian oracles declare ρ) and reports the composed total.
	acct, err := mech.NewAccountant(cfg.Accountant, mech.Params{Eps: cfg.Eps, Delta: cfg.Delta})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	oracleCost := erm.CostOf(cfg.Oracle, eps0, delta0)

	// validate() rejected negatives; xeval.New maps 0 to runtime.NumCPU().
	eng := xeval.New(cfg.Workers)
	xsize := data.U.Size()
	state, err := mw.New(data.U, mw.Eta(cfg.S, cfg.Rounds, xsize), cfg.S)
	if err != nil {
		return nil, err
	}
	state.SetEngine(eng)
	priv := data.Histogram()
	sens := 3 * cfg.S / float64(data.N())

	selected := make([]int, 0, cfg.Rounds)
	for round := 0; round < cfg.Rounds; round++ {
		hyp := state.Histogram()
		// Score every query by how badly the hypothesis answers it.
		scores := make([]float64, len(losses))
		thetaHats := make([][]float64, len(losses))
		for i, l := range losses {
			res, err := optimize.Minimize(l, hyp, optimize.Options{MaxIters: solverIters, Engine: eng})
			if err != nil {
				return nil, err
			}
			thetaHats[i] = res.Theta
			minD, err := optimize.MinValue(l, priv, optimize.Options{MaxIters: solverIters, Engine: eng})
			if err != nil {
				return nil, err
			}
			e := convex.EvalOn(eng, l, res.Theta, priv) - minD
			if e < 0 {
				e = 0
			}
			scores[i] = e
		}
		idx, err := mech.Exponential(src, scores, sens, eps0)
		if err != nil {
			return nil, err
		}
		if err := acct.Spend(mech.PureCost(eps0)); err != nil {
			return nil, err
		}
		selected = append(selected, idx)

		l := losses[idx]
		theta, err := cfg.Oracle.Answer(src, l, data, eps0, delta0)
		if err != nil {
			return nil, err
		}
		if err := acct.Spend(oracleCost); err != nil {
			return nil, err
		}
		// Dual-certificate update, identical to the online path.
		dir := vecmath.Sub(theta, thetaHats[idx])
		uvec := make([]float64, xsize)
		convex.DirGradOn(eng, l, uvec, dir, thetaHats[idx], data.U)
		eng.ForEach(xsize, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				uvec[i] = vecmath.Clamp(uvec[i], -cfg.S, cfg.S)
			}
		})
		if err := state.Update(uvec); err != nil {
			return nil, err
		}
	}

	final := state.Histogram()
	answers := make([][]float64, len(losses))
	for i, l := range losses {
		res, err := optimize.Minimize(l, final, optimize.Options{MaxIters: solverIters, Engine: eng})
		if err != nil {
			return nil, err
		}
		answers[i] = res.Theta
	}
	return &OfflineResult{
		Answers:    answers,
		Hypothesis: final.Clone(),
		Selected:   selected,
		Accountant: acct.Name(),
		Accounted:  acct.Total(),
	}, nil
}
