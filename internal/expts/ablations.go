package expts

import (
	"fmt"

	"repro/internal/convex"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/mw"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// ablationEta sweeps the MW learning rate around the paper's choice via the
// TBudget knob (η = √(log|X|/T)/S, so T controls η): too small a T (big η)
// overshoots, too large a T (tiny η) makes each update nearly useless and
// burns the sparse-vector budget.
func ablationEta() Experiment {
	return Experiment{
		ID:    "A1.ETA",
		Title: "ablation: learning rate η (via T) vs accuracy and updates used",
		PaperClaim: "Figure 3 sets η = √(log|X|/T); the proof needs each update to gain " +
			"≥ ηα/4 − η²S²/2 of potential — both very large and very small η waste updates",
		Run: func(cfg RunConfig) (*Table, error) {
			g, err := stdGrid()
			if err != nil {
				return nil, err
			}
			budgets := []int{2, 12, 60, 300}
			if cfg.Quick {
				budgets = []int{2, 12, 60}
			}
			k := 80
			alpha := 0.08
			t := &Table{
				Name:       "A1.ETA",
				Title:      fmt.Sprintf("PMW on k=%d linear queries at α=%.2g, sweeping T (hence η)", k, alpha),
				PaperClaim: "intermediate η best; tiny η (huge T) stalls, huge η (tiny T) halts early",
				Columns:    []string{"T", "eta", "max_excess", "updates", "halted_early"},
			}
			src := sample.New(cfg.Seed)
			data, _, err := sampleData(src.Split(), g, 1.5, 80000)
			if err != nil {
				return nil, err
			}
			d := data.Histogram()
			losses, err := linearWorkload(src.Split(), g, k)
			if err != nil {
				return nil, err
			}
			for _, T := range budgets {
				ccfg := core.Config{
					Workers: cfg.Workers, Accountant: cfg.Accountant,
					Eps: 1, Delta: 1e-6, Alpha: alpha, Beta: 0.05,
					K: k, S: 1, Oracle: erm.LaplaceLinear{}, TBudget: T,
				}
				ans, srv, err := runPMW(ccfg, data, src.Split(), losses)
				if err != nil {
					return nil, err
				}
				e, err := maxExcess(losses, ans, d)
				if err != nil {
					return nil, err
				}
				// "halted early" = ran out of ⊤ budget before the stream
				// ended (seeing all k queries also sets Halted, which is
				// the normal end of the run).
				early := srv.Answered() < k
				t.Add(T, srv.Params().Eta, e, srv.Updates(), fmt.Sprintf("%v", early))
			}
			return t, nil
		},
	}
}

// ablationUpdateVector compares the paper's dual-certificate update vector
// (Claim 3.5) against a naive alternative — the per-record loss gap
// ℓ(θt; x) − ℓ(θ̂t; x) — in a controlled MW loop without privacy noise.
// The dual certificate guarantees ⟨u_t, D̂t − D⟩ ≥ ℓ_D(θ̂t) − ℓ_D(θt) > 0;
// the loss-gap vector carries no such guarantee and converges more slowly
// (or not at all).
func ablationUpdateVector() Experiment {
	return Experiment{
		ID:    "A2.DUAL",
		Title: "ablation: dual-certificate update vector vs naive loss-gap vector",
		PaperClaim: "Claim 3.5's u_t(x) = ⟨θt−θ̂t, ∇ℓ_x(θ̂t)⟩ makes guaranteed progress; " +
			"without the first-order-optimality argument the update can stall",
		Run: func(cfg RunConfig) (*Table, error) {
			g, err := stdGrid()
			if err != nil {
				return nil, err
			}
			rounds := 40
			if cfg.Quick {
				rounds = 20
			}
			src := sample.New(cfg.Seed)
			data, _, err := sampleData(src.Split(), g, 1.5, 50000)
			if err != nil {
				return nil, err
			}
			d := data.Histogram()
			losses, err := squaredWorkload(src.Split(), g, 25)
			if err != nil {
				return nil, err
			}
			s := convex.ScaleBound(losses[0])

			type rule struct {
				name string
				vec  func(l convex.Loss, theta, thetaHat []float64) []float64
			}
			eng := xeval.New(cfg.Workers)
			dual := rule{"dual-certificate", func(l convex.Loss, theta, thetaHat []float64) []float64 {
				dir := vecmath.Sub(theta, thetaHat)
				u := make([]float64, g.Size())
				convex.DirGradOn(eng, l, u, dir, thetaHat, g)
				for i := range u {
					u[i] = vecmath.Clamp(u[i], -s, s)
				}
				return u
			}}
			lossGap := rule{"loss-gap", func(l convex.Loss, theta, thetaHat []float64) []float64 {
				u := make([]float64, g.Size())
				buf := make([]float64, g.Dim())
				for i := 0; i < g.Size(); i++ {
					x := g.PointInto(i, buf)
					u[i] = vecmath.Clamp(l.Value(theta, x)-l.Value(thetaHat, x), -s, s)
				}
				return u
			}}
			// A genuinely certificate-free rule: penalize records by the
			// hypothesis answer's raw loss. It ignores where the private
			// answer points, so it has no progress guarantee.
			hypLoss := rule{"hypothesis-loss", func(l convex.Loss, _, thetaHat []float64) []float64 {
				u := make([]float64, g.Size())
				buf := make([]float64, g.Dim())
				for i := 0; i < g.Size(); i++ {
					u[i] = vecmath.Clamp(l.Value(thetaHat, g.PointInto(i, buf)), -s, s)
				}
				return u
			}}

			t := &Table{
				Name:  "A2.DUAL",
				Title: fmt.Sprintf("noiseless MW loop, %d rounds, worst query error by round", rounds),
				PaperClaim: "dual-certificate drives worst error down with a guarantee; loss-gap " +
					"tracks it only because it is the certificate's first-order Taylor " +
					"approximation; a certificate-free rule stalls",
				Columns: []string{"rule", "round", "worst_excess"},
			}
			for _, r := range []rule{dual, lossGap, hypLoss} {
				state, err := mw.New(g, mw.Eta(s, rounds, g.Size()), s)
				if err != nil {
					return nil, err
				}
				for round := 1; round <= rounds; round++ {
					hyp := state.Histogram()
					// Pick the pool query the hypothesis answers worst
					// (noiseless selection isolates the update rule).
					var worst float64
					var worstIdx int
					var worstThetaHat []float64
					for i, l := range losses {
						res, err := optimize.Minimize(l, hyp, optimize.Options{MaxIters: 300})
						if err != nil {
							return nil, err
						}
						e, err := optimize.Excess(l, res.Theta, d, optimize.Options{MaxIters: 300})
						if err != nil {
							return nil, err
						}
						if e >= worst {
							worst, worstIdx, worstThetaHat = e, i, res.Theta
						}
					}
					if round == rounds || round == 1 || round%10 == 0 {
						t.Add(r.name, round, worst)
					}
					l := losses[worstIdx]
					// Noiseless "oracle": the true minimizer on D.
					res, err := optimize.Minimize(l, d, optimize.Options{MaxIters: 300})
					if err != nil {
						return nil, err
					}
					if err := state.Update(r.vec(l, res.Theta, worstThetaHat)); err != nil {
						return nil, err
					}
				}
			}
			return t, nil
		},
	}
}

// biasedOracle answers with the exact minimizer perturbed by a
// fixed-magnitude random direction — a dial on the oracle's accuracy
// contract α₀ with everything else held fixed. It is NOT differentially
// private; the ablation isolates the *accuracy* assumption (2) of §3.3,
// not the privacy one.
type biasedOracle struct {
	bias float64
}

func (o biasedOracle) Name() string { return fmt.Sprintf("biased(%g)", o.bias) }

func (o biasedOracle) Answer(src *sample.Source, l convex.Loss, data *dataset.Dataset, _, _ float64) ([]float64, error) {
	res, err := optimize.Minimize(l, data.Histogram(), optimize.Options{MaxIters: 600})
	if err != nil {
		return nil, err
	}
	if o.bias == 0 {
		return res.Theta, nil
	}
	dir := src.UnitVec(l.Domain().Dim())
	return l.Domain().Project(vecmath.AddScaled(vecmath.Copy(res.Theta), o.bias, dir)), nil
}

// ablationOracle sweeps the single-query oracle's accuracy: the end-to-end
// guarantee needs (α₀ = α/4)-accurate oracle answers (assumption (2) of
// §3.3). An inaccurate oracle hurts twice — its answers are released
// directly on ⊤ queries, and they corrupt the dual-certificate direction
// θt − θ̂t of the MW update.
func ablationOracle() Experiment {
	return Experiment{
		ID:    "A3.ORACLE",
		Title: "ablation: oracle answer bias vs end-to-end error",
		PaperClaim: "Theorem 3.8 requires an (α/4, β₀)-accurate oracle; degrading the " +
			"oracle degrades the final guarantee roughly linearly in the bias",
		Run: func(cfg RunConfig) (*Table, error) {
			g, err := stdGrid()
			if err != nil {
				return nil, err
			}
			biases := []float64{0, 0.2, 0.5, 1.0}
			if cfg.Quick {
				biases = []float64{0, 0.5}
			}
			k := 30
			src := sample.New(cfg.Seed)
			pop, err := dataset.LinearModel(src.Split(), g, []float64{0.7, -0.5}, 0.15, 30000)
			if err != nil {
				return nil, err
			}
			data := dataset.SampleFrom(src.Split(), pop, 40000)
			d := data.Histogram()
			losses, err := squaredWorkload(src.Split(), g, k)
			if err != nil {
				return nil, err
			}
			s := convex.ScaleBound(losses[0])
			t := &Table{
				Name:       "A3.ORACLE",
				Title:      fmt.Sprintf("PMW on k=%d squared queries, sweeping the oracle's θ-space bias", k),
				PaperClaim: "max excess grows with oracle bias (both released answers and updates degrade)",
				Columns:    []string{"oracle_bias", "max_excess", "updates"},
			}
			for _, bias := range biases {
				ccfg := core.Config{
					Workers: cfg.Workers, Accountant: cfg.Accountant,
					Eps: 1, Delta: 1e-6, Alpha: 0.05, Beta: 0.05,
					K: k, S: s, Oracle: biasedOracle{bias: bias}, TBudget: 14,
				}
				ans, srv, err := runPMW(ccfg, data, src.Split(), losses)
				if err != nil {
					return nil, err
				}
				e, err := maxExcess(losses, ans, d)
				if err != nil {
					return nil, err
				}
				t.Add(bias, e, srv.Updates())
			}
			return t, nil
		},
	}
}
