package expts

import (
	"fmt"

	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/erm"
	"repro/internal/histogram"
	"repro/internal/mech"
	"repro/internal/mw"
	"repro/internal/sample"
	"repro/internal/sparse"
)

// fig1AccuracyGame reproduces Figure 1 / Definition 2.4: the empirical
// (α, β)-accuracy of the mechanism against a greedy adaptive adversary, as
// a function of n.
func fig1AccuracyGame() Experiment {
	return Experiment{
		ID:    "F1.ACC",
		Title: "sample accuracy game: success rate vs n against a greedy adversary",
		PaperClaim: "Pr[max_j err ≤ α] ≥ 1−β once n exceeds Theorem 3.8's bound; " +
			"success rate rises toward 1 as n grows",
		Run: func(cfg RunConfig) (*Table, error) {
			g, err := stdGrid()
			if err != nil {
				return nil, err
			}
			ns := []int{500, 5000, 50000}
			runs := 12
			if cfg.Quick {
				ns = []int{500, 50000}
				runs = 6
			}
			alpha := 0.1
			k := 40
			t := &Table{
				Name:       "F1.ACC",
				Title:      fmt.Sprintf("fraction of games with max excess ≤ α=%.2g (k=%d greedy linear queries)", alpha, k),
				PaperClaim: "success rate increasing in n, → 1",
				Columns:    []string{"n", "success_rate", "mean_max_err", "halted_frac"},
			}
			src := sample.New(cfg.Seed)
			for _, n := range ns {
				var success, halted int
				var sumMax float64
				for r := 0; r < runs; r++ {
					data, _, err := sampleData(src.Split(), g, 1.2, n)
					if err != nil {
						return nil, err
					}
					pool, err := linearWorkload(src.Split(), g, k)
					if err != nil {
						return nil, err
					}
					adv, err := accuracy.NewGreedy(pool, data.Histogram(), histogram.Uniform(g), 200)
					if err != nil {
						return nil, err
					}
					srv, err := core.New(core.Config{
						Accountant: cfg.Accountant,
						Eps:        1, Delta: 1e-6, Alpha: alpha, Beta: 0.05,
						K: k, S: 1, Oracle: erm.LaplaceLinear{}, TBudget: 12,
					}, data, src.Split())
					if err != nil {
						return nil, err
					}
					res, err := accuracy.RunGame(srv, adv, data, accuracy.GameConfig{K: k})
					if err != nil {
						return nil, err
					}
					sumMax += res.MaxErr
					if res.HaltedEarly {
						halted++
					} else if res.MaxErr <= alpha {
						success++
					}
				}
				t.Add(n, float64(success)/float64(runs), sumMax/float64(runs), float64(halted)/float64(runs))
			}
			return t, nil
		},
	}
}

// fig2SparseVector reproduces Figure 2 / Theorem 3.1: the ThresholdGame
// correctness rates of the online sparse vector algorithm as n grows
// (sensitivity 3S/n shrinks).
func fig2SparseVector() Experiment {
	return Experiment{
		ID:    "F2.SV",
		Title: "ThresholdGame: sparse-vector correctness rates vs n",
		PaperClaim: "for n ≥ 256·S·√(T·log(2/δ)·log(4k/β))/(εα), above-threshold queries " +
			"answer ⊤ and below-half queries answer ⊥ w.p. ≥ 1−β",
		Run: func(cfg RunConfig) (*Table, error) {
			alpha := 0.1
			scfg := sparse.Config{T: 8, K: 500, Alpha: alpha, Eps: 1, Delta: 1e-6}
			ns := []int{200, 2000, 20000, 200000}
			runs := 60
			if cfg.Quick {
				ns = []int{200, 20000}
				runs = 20
			}
			t := &Table{
				Name:       "F2.SV",
				Title:      "per-query decision accuracy of SV (T=8, k=500, α=0.1, ε=1)",
				PaperClaim: "both rates → 1 as n grows; theorem bound n* marks the guarantee",
				Columns:    []string{"n", "top_rate", "bottom_rate"},
			}
			nStar := sparse.MinDatasetSize(1, scfg, 0.05)
			t.Note("Theorem 3.1 sample bound n* = %d (constants are worst-case)", nStar)
			src := sample.New(cfg.Seed)
			for _, n := range ns {
				c := scfg
				c.Sensitivity = 3.0 / float64(n)
				var topOK, topTotal, botOK, botTotal int
				for r := 0; r < runs; r++ {
					sv, err := sparse.New(c, src.Split())
					if err != nil {
						return nil, err
					}
					for q := 0; q < 40 && !sv.Halted(); q++ {
						above := q%8 == 7
						var v float64
						if above {
							v = alpha * 1.1
						} else {
							v = alpha * 0.4
						}
						top, err := sv.Query(v)
						if err != nil {
							return nil, err
						}
						if above {
							topTotal++
							if top {
								topOK++
							}
						} else {
							botTotal++
							if !top {
								botOK++
							}
						}
					}
				}
				t.Add(n, float64(topOK)/float64(topTotal), float64(botOK)/float64(botTotal))
			}
			return t, nil
		},
	}
}

// fig3AlgorithmInternals validates Figure 3's moving parts: update count
// stays under the budget T, per-update progress exceeds α/4 (Claim 3.6),
// and the KL potential decreases monotonically (Lemma 3.4's mechanism).
func fig3AlgorithmInternals() Experiment {
	return Experiment{
		ID:    "F3.ALG",
		Title: "Figure 3 internals: update count, per-update progress, potential decay",
		PaperClaim: "updates ≤ T = 64S²log|X|/α²; every update has ⟨u_t, D̂t−D⟩ > α/4 " +
			"(Claim 3.6); KL(D‖D̂t) decreases (Lemma 3.4 proof)",
		Run: func(cfg RunConfig) (*Table, error) {
			g, err := stdGrid()
			if err != nil {
				return nil, err
			}
			k := 150
			if cfg.Quick {
				k = 60
			}
			alpha := 0.05
			src := sample.New(cfg.Seed)
			data, _, err := sampleData(src.Split(), g, 1.5, 100000)
			if err != nil {
				return nil, err
			}
			pool, err := linearWorkload(src.Split(), g, k)
			if err != nil {
				return nil, err
			}
			adv, err := accuracy.NewGreedy(pool, data.Histogram(), histogram.Uniform(g), 200)
			if err != nil {
				return nil, err
			}
			ccfg := core.Config{
				Accountant: cfg.Accountant,
				Eps:        1, Delta: 1e-6, Alpha: alpha, Beta: 0.05,
				K: k, S: 1, Oracle: erm.LaplaceLinear{}, TBudget: 25, Trace: true,
			}
			srv, err := core.New(ccfg, data, src.Split())
			if err != nil {
				return nil, err
			}
			if _, err := accuracy.RunGame(srv, adv, data, accuracy.GameConfig{K: k}); err != nil {
				return nil, err
			}
			t := &Table{
				Name:       "F3.ALG",
				Title:      fmt.Sprintf("per-update trace (α=%.2g, α/4=%.3g, T budget=%d)", alpha, alpha/4, srv.Params().T),
				PaperClaim: "progress > α/4 per update; potential decreasing; updates ≤ T",
				Columns:    []string{"update", "query", "true_err", "progress", "potential"},
			}
			traces := srv.Traces()
			prevPot := -1.0
			var monotone = true
			var progressOK int
			for _, tr := range traces {
				t.Add(tr.UpdateIndex, tr.QueryIndex, tr.TrueErr, tr.Progress, tr.Potential)
				if prevPot >= 0 && tr.Potential > prevPot+1e-9 {
					monotone = false
				}
				prevPot = tr.Potential
				if tr.Progress > alpha/4 {
					progressOK++
				}
			}
			t.Note("updates used: %d of budget %d (paper worst-case T would be %d)",
				srv.Updates(), srv.Params().T, mw.UpdateBudget(1, alpha, g.Size()))
			if len(traces) > 0 {
				t.Note("updates with progress > α/4: %d/%d; potential monotone: %v",
					progressOK, len(traces), monotone)
			}
			return t, nil
		},
	}
}

// fig4Composition reproduces Figure 4 / Theorem 3.10: the privacy cost of
// T-fold adaptive composition under the basic vs strong rule, plus an
// empirical adjacent-dataset check of the sparse-vector bit.
func fig4Composition() Experiment {
	return Experiment{
		ID:    "F4.COMP",
		Title: "T-fold composition: basic vs strong (Thm 3.10) ε totals; empirical DP check",
		PaperClaim: "strong composition gives ε ≈ √(2T·ln(1/δ′))·ε₀ + 2Tε₀² ≪ T·ε₀; the " +
			"paper's split schedule keeps T calls within (ε, δ)",
		Run: func(cfg RunConfig) (*Table, error) {
			t := &Table{
				Name:       "F4.COMP",
				Title:      "total ε of T mechanisms at ε₀ = SplitBudget(1, 1e-6, T)",
				PaperClaim: "advanced ≤ 1 (target), basic grows like √T·advanced",
				Columns:    []string{"T", "eps0", "basic_eps", "advanced_eps"},
			}
			for _, T := range []int{10, 100, 1000} {
				eps0, delta0, err := mech.SplitBudget(1, 1e-6, T)
				if err != nil {
					return nil, err
				}
				basic := mech.BasicComposition(eps0, delta0, T)
				adv, err := mech.AdvancedComposition(eps0, delta0, T, 0.5e-6)
				if err != nil {
					return nil, err
				}
				t.Add(T, eps0, basic.Eps, adv.Eps)
			}

			// Empirical adjacent-dataset check of the SV first-answer bit at a
			// borderline query value.
			runs := 30000
			if cfg.Quick {
				runs = 6000
			}
			scfg := sparse.Config{T: 1, K: 1, Alpha: 0.2, Eps: 0.5, Delta: 1e-6, Sensitivity: 0.01}
			mk := func(value float64) func(int64) string {
				return func(seed int64) string {
					sv, err := sparse.New(scfg, sample.New(seed))
					if err != nil {
						return "err"
					}
					top, err := sv.Query(value)
					if err != nil {
						return "err"
					}
					if top {
						return "T"
					}
					return "F"
				}
			}
			v := 0.75 * scfg.Alpha
			est, err := accuracy.EstimateDP(runs, 0.02, mk(v), mk(v+scfg.Sensitivity))
			if err != nil {
				return nil, err
			}
			t.Note("empirical SV bit log-ratio on adjacent inputs: %.3f (mechanism ε=%.2g; sampling noise included)",
				est.WorstLogRatio, scfg.Eps)
			return t, nil
		},
	}
}
