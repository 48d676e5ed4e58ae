package expts

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/convex"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/optimize"
	"repro/internal/sample"
)

// runPMW answers every loss through an online PMW server, returning
// per-query answers (nil after a halt).
func runPMW(cfg core.Config, data *dataset.Dataset, src *sample.Source, losses []convex.Loss) ([][]float64, *core.Server, error) {
	srv, err := core.New(cfg, data, src)
	if err != nil {
		return nil, nil, err
	}
	answers := make([][]float64, len(losses))
	for i, l := range losses {
		theta, err := srv.Answer(l)
		if err == core.ErrHalted {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		answers[i] = theta
	}
	return answers, srv, nil
}

// runComposition answers every loss through the per-query baseline.
func runComposition(oracle erm.Oracle, eps, delta float64, data *dataset.Dataset, src *sample.Source, losses []convex.Loss) ([][]float64, error) {
	c, err := baseline.NewComposition(oracle, eps, delta, len(losses))
	if err != nil {
		return nil, err
	}
	answers := make([][]float64, len(losses))
	for i, l := range losses {
		theta, err := c.Answer(src, l, data)
		if err != nil {
			return nil, err
		}
		answers[i] = theta
	}
	return answers, nil
}

// table1Linear reproduces Table 1 row 1 (linear queries): PMW's max error
// stays nearly flat in k while independent Laplace answering degrades like
// √k, so PMW wins once k is large.
func table1Linear() Experiment {
	return Experiment{
		ID:    "T1.LIN",
		Title: "linear queries: PMW vs per-query Laplace composition, sweeping k",
		PaperClaim: "n for PMW grows like √(log|X|)·log k (HR10) vs √k for composition; " +
			"at fixed n, composition error grows ~√k while PMW stays ~flat",
		Run: func(cfg RunConfig) (*Table, error) {
			g, err := stdGrid()
			if err != nil {
				return nil, err
			}
			// Linear queries are cheap for composition (sensitivity 1/n), so
			// the crossover sits at large k: composition's max error grows
			// like √k·log k / n while PMW is pinned near its target α
			// independent of k. Linear queries have closed-form solves, so
			// tens of thousands of queries are affordable here.
			ks := []int{100, 3000, 30000}
			if cfg.Quick {
				ks = []int{100, 8000}
			}
			n := 30000
			eps, delta := 1.0, 1e-6
			alpha := 0.1
			t := &Table{
				Name:       "T1.LIN",
				Title:      fmt.Sprintf("max excess risk over k linear queries (n=%d, ε=1, α=%.2g)", n, alpha),
				PaperClaim: "composition degrades ~√k·log k; PMW pinned near α; crossover at large k",
				Columns:    []string{"k", "pmw", "composition", "exact", "pmw_updates"},
			}
			src := sample.New(cfg.Seed)
			data, _, err := sampleData(src, g, 1.2, n)
			if err != nil {
				return nil, err
			}
			d := data.Histogram()
			var pmwErrs, compErrs []float64
			for _, k := range ks {
				losses, err := linearWorkload(src.Split(), g, k)
				if err != nil {
					return nil, err
				}
				pmwCfg := core.Config{
					Workers: cfg.Workers, Accountant: cfg.Accountant,
					Eps: eps, Delta: delta, Alpha: alpha, Beta: 0.05,
					K: k, S: 1, Oracle: erm.LaplaceLinear{}, TBudget: 6,
				}
				pmwAns, srv, err := runPMW(pmwCfg, data, src.Split(), losses)
				if err != nil {
					return nil, err
				}
				pmwErr, err := maxExcess(losses, pmwAns, d)
				if err != nil {
					return nil, err
				}
				compAns, err := runComposition(erm.LaplaceLinear{}, eps, delta, data, src.Split(), losses)
				if err != nil {
					return nil, err
				}
				compErr, err := maxExcess(losses, compAns, d)
				if err != nil {
					return nil, err
				}
				exact := baseline.Exact{}
				exAns := make([][]float64, len(losses))
				for i, l := range losses {
					exAns[i], err = exact.Answer(l, data)
					if err != nil {
						return nil, err
					}
				}
				exErr, err := maxExcess(losses, exAns, d)
				if err != nil {
					return nil, err
				}
				t.Add(k, pmwErr, compErr, exErr, srv.Updates())
				pmwErrs = append(pmwErrs, pmwErr)
				compErrs = append(compErrs, compErr)
			}
			last := len(ks) - 1
			growthComp := compErrs[last] / math.Max(compErrs[0], 1e-9)
			growthPMW := math.Max(pmwErrs[last], 1e-9) / math.Max(pmwErrs[0], 1e-9)
			t.Note("composition error growth k=%d→%d: ×%.2f; pmw growth: ×%.2f", ks[0], ks[last], growthComp, growthPMW)
			if compErrs[last] > pmwErrs[last] {
				t.Note("MATCH: PMW beats composition at k=%d", ks[last])
			} else {
				t.Note("MISMATCH: composition beat PMW at k=%d (crossover sits at larger k for this n)", ks[last])
			}
			return t, nil
		},
	}
}

// table1Lipschitz reproduces Table 1 row 2 (Lipschitz, d-bounded CM
// queries): PMW with the NoisyGD oracle vs per-query composition, sweeping
// n and k.
func table1Lipschitz() Experiment {
	return Experiment{
		ID:    "T1.LIP",
		Title: "Lipschitz d-bounded CM queries: PMW(NoisyGD) vs composition, sweeping n and k",
		PaperClaim: "n = Õ(max{√d·√log|X|, log k·√log|X|}/α²·ε) for PMW vs Õ(√k·√d/αε) " +
			"for composition: at fixed n, error decreases in n and PMW wins at large k",
		Run: func(cfg RunConfig) (*Table, error) {
			g, err := stdGrid()
			if err != nil {
				return nil, err
			}
			type cell struct{ n, k int }
			sweep := []cell{{8000, 30}, {32000, 30}, {32000, 120}}
			if cfg.Quick {
				sweep = []cell{{8000, 15}, {32000, 15}}
			}
			eps, delta := 1.0, 1e-6
			t := &Table{
				Name:       "T1.LIP",
				Title:      "max excess risk over k squared-loss CM queries (ε=1)",
				PaperClaim: "error decreasing in n; PMW flat in k, composition degrading",
				Columns:    []string{"n", "k", "pmw", "composition", "pmw_updates"},
			}
			src := sample.New(cfg.Seed)
			// Linear-model population so the queries have signal.
			popSrc := src.Split()
			pop, err := dataset.LinearModel(popSrc, g, []float64{0.7, -0.5}, 0.15, 30000)
			if err != nil {
				return nil, err
			}
			oracle := erm.NoisyGD{Iters: 40}
			for _, c := range sweep {
				data := dataset.SampleFrom(src.Split(), pop, c.n)
				d := data.Histogram()
				losses, err := squaredWorkload(src.Split(), g, c.k)
				if err != nil {
					return nil, err
				}
				s := convex.ScaleBound(losses[0])
				pmwCfg := core.Config{
					Workers: cfg.Workers, Accountant: cfg.Accountant,
					Eps: eps, Delta: delta, Alpha: 0.15, Beta: 0.05,
					K: c.k, S: s, Oracle: oracle, TBudget: 10,
				}
				pmwAns, srv, err := runPMW(pmwCfg, data, src.Split(), losses)
				if err != nil {
					return nil, err
				}
				pmwErr, err := maxExcess(losses, pmwAns, d)
				if err != nil {
					return nil, err
				}
				compAns, err := runComposition(oracle, eps, delta, data, src.Split(), losses)
				if err != nil {
					return nil, err
				}
				compErr, err := maxExcess(losses, compAns, d)
				if err != nil {
					return nil, err
				}
				t.Add(c.n, c.k, pmwErr, compErr, srv.Updates())
			}
			return t, nil
		},
	}
}

// table1GLM reproduces Table 1 row 3 (unconstrained GLMs). Theorem 4.3 is a
// statement about the single-query oracle, so this experiment compares
// oracles directly: the GLM-reduction oracle's error is dominated by a
// d-independent reduction term while the generic NoisyGD oracle's noise
// grows with √d, so the generic curve climbs much faster and the two cross
// as d grows.
func table1GLM() Experiment {
	return Experiment{
		ID:    "T1.GLM",
		Title: "UGLM queries: dimension dependence of GLM-reduction vs generic oracle",
		PaperClaim: "JT14 oracle needs n = Õ(1/α²ε) independent of d, vs Õ(√d/αε) for the " +
			"generic oracle: at fixed n, GLM error ~flat in d, generic grows with d",
		Run: func(cfg RunConfig) (*Table, error) {
			// High ambient dimensions are reachable because the universe is
			// a *sampled* set of labeled points (|X| = 1024 regardless of
			// d), exactly the rounding freedom §1.1 grants. Labels follow a
			// sharp logistic model so the optimum is informative.
			dims := []int{8, 32, 64}
			trials := 6
			iters := 300
			if cfg.Quick {
				dims = []int{8, 32}
				trials = 2
				iters = 120
			}
			n := 25000
			eps, delta := 1.0, 1e-6
			m := 8
			t := &Table{
				Name:  "T1.GLM",
				Title: fmt.Sprintf("single-query oracle excess on a logistic query vs ambient dim (n=%d, ε=%g, m=%d)", n, eps, m),
				PaperClaim: "glmreduce pinned at its m-dependent reduction floor (flat in d); " +
					"noisygd grows with d and the curves cross",
				Columns: []string{"d", "|X|", "glmreduce", "noisygd"},
			}
			src := sample.New(cfg.Seed)
			var glmErrs, genErrs []float64
			for _, dim := range dims {
				u, err := randomLabeledPoints(src.Split(), dim, 1024, 8.0)
				if err != nil {
					return nil, err
				}
				data, _, err := sampleData(src.Split(), u, 0.5, n)
				if err != nil {
					return nil, err
				}
				d := data.Histogram()
				ball, err := convex.NewL2Ball(dim, 1)
				if err != nil {
					return nil, err
				}
				lg, err := convex.NewLogistic("logit", ball, 0.0, 0.5, 1.0)
				if err != nil {
					return nil, err
				}
				var errs []float64
				for _, oracle := range []erm.Oracle{
					erm.GLMReduction{ReducedDim: m, Iters: iters},
					erm.NoisyGD{Iters: iters},
				} {
					var total float64
					for r := 0; r < trials; r++ {
						theta, err := oracle.Answer(src.Split(), lg, data, eps, delta)
						if err != nil {
							return nil, err
						}
						e, err := optimize.Excess(lg, theta, d, optimize.Options{MaxIters: 800})
						if err != nil {
							return nil, err
						}
						total += e
					}
					errs = append(errs, total/float64(trials))
				}
				t.Add(dim, u.Size(), errs[0], errs[1])
				glmErrs = append(glmErrs, errs[0])
				genErrs = append(genErrs, errs[1])
			}
			last := len(dims) - 1
			t.Note("growth d=%d→%d: glmreduce ×%.2f, noisygd ×%.2f (paper: flat vs d-driven)",
				dims[0], dims[last],
				glmErrs[last]/math.Max(glmErrs[0], 1e-9),
				genErrs[last]/math.Max(genErrs[0], 1e-9))
			if glmErrs[last] < genErrs[last] {
				t.Note("MATCH: glmreduce overtakes noisygd at d=%d", dims[last])
			} else {
				t.Note("crossover beyond d=%d at this (n, ε); the shape claim is the growth contrast above", dims[last])
			}
			return t, nil
		},
	}
}

// table1StronglyConvex reproduces Table 1 row 4: stronger convexity buys
// accuracy through the output-perturbation oracle.
func table1StronglyConvex() Experiment {
	return Experiment{
		ID:    "T1.SC",
		Title: "σ-strongly convex CM queries: error vs σ with the output-perturbation oracle",
		PaperClaim: "single-query n = Õ(√d/(√σ·α·ε)) (BST14): at fixed n, error decreases " +
			"as σ grows; PMW inherits the improvement",
		Run: func(cfg RunConfig) (*Table, error) {
			g, err := stdGrid()
			if err != nil {
				return nil, err
			}
			sigmas := []float64{0.1, 0.5, 2.0}
			if cfg.Quick {
				sigmas = []float64{0.1, 2.0}
			}
			k := 15
			n := 30000
			eps, delta := 1.0, 1e-6
			t := &Table{
				Name:       "T1.SC",
				Title:      fmt.Sprintf("max excess over k=%d ridge-regularized queries vs σ (n=%d, ε=1)", k, n),
				PaperClaim: "error decreasing in σ",
				Columns:    []string{"sigma_effective", "pmw+outputperturb", "composition"},
			}
			src := sample.New(cfg.Seed)
			popSrc := src.Split()
			pop, err := dataset.LinearModel(popSrc, g, []float64{0.7, -0.5}, 0.15, 30000)
			if err != nil {
				return nil, err
			}
			data := dataset.SampleFrom(src.Split(), pop, n)
			d := data.Histogram()
			base, err := squaredWorkload(src.Split(), g, k)
			if err != nil {
				return nil, err
			}
			oracle := erm.OutputPerturbation{}
			for _, sigma := range sigmas {
				// Ridge-regularize, then renormalize to 1-Lipschitz per the
				// paper's convention (§4.2.3 assumes L = 1 at every σ).
				losses := make([]convex.Loss, len(base))
				for i, b := range base {
					rg, err := convex.NewRegularized(b, sigma)
					if err != nil {
						return nil, err
					}
					norm, err := convex.NewUnitLipschitz(rg)
					if err != nil {
						return nil, err
					}
					losses[i] = norm
				}
				s := convex.ScaleBound(losses[0])
				pmwCfg := core.Config{
					Workers: cfg.Workers, Accountant: cfg.Accountant,
					Eps: eps, Delta: delta, Alpha: 0.15, Beta: 0.05,
					K: k, S: s, Oracle: oracle, TBudget: 8,
				}
				ans, _, err := runPMW(pmwCfg, data, src.Split(), losses)
				if err != nil {
					return nil, err
				}
				pmwErr, err := maxExcess(losses, ans, d)
				if err != nil {
					return nil, err
				}
				compAns, err := runComposition(oracle, eps, delta, data, src.Split(), losses)
				if err != nil {
					return nil, err
				}
				compErr, err := maxExcess(losses, compAns, d)
				if err != nil {
					return nil, err
				}
				t.Add(losses[0].StrongConvexity(), pmwErr, compErr)
			}
			return t, nil
		},
	}
}
