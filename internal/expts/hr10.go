package expts

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/erm"
	"repro/internal/mech"
	"repro/internal/sample"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

// hr10Comparison checks that the paper's CM generalization specializes
// correctly: on a pure linear-query workload, online PMW-for-CM (with the
// Laplace linear oracle), Hardt–Rothblum's original online PMW, and
// offline MWEM all land in the same accuracy regime, far ahead of
// independent Laplace answering.
func hr10Comparison() Experiment {
	return Experiment{
		ID:    "X1.HR10",
		Title: "lineage check: PMW-for-CM vs HR10 linear PMW vs MWEM vs composition",
		PaperClaim: "the CM algorithm degenerates to (a noisier flavor of) HR10's linear PMW " +
			"on linear queries (§1.2); both beat per-query composition at large k",
		Run: func(cfg RunConfig) (*Table, error) {
			g, err := stdGrid()
			if err != nil {
				return nil, err
			}
			k := 40000
			if cfg.Quick {
				k = 8000
			}
			n := 30000
			eps, delta := 1.0, 1e-6
			t := &Table{
				Name:  "X1.HR10",
				Title: fmt.Sprintf("worst excess risk / answer error over k=%d linear queries (n=%d, ε=1)", k, n),
				PaperClaim: "hr10-pmw and mwem (native answer-unit mechanisms) are the most " +
					"accurate; cm-pmw pays a quadratic embedding penalty but still beats " +
					"composition at large k",
				Columns: []string{"method", "worst_excess", "worst_answer_err", "updates"},
			}
			src := sample.New(cfg.Seed)
			data, _, err := sampleData(src, g, 1.2, n)
			if err != nil {
				return nil, err
			}
			d := data.Histogram()
			queries, err := workload.Halfspaces(src.Split(), g, k)
			if err != nil {
				return nil, err
			}
			truth := make([]float64, k)
			for i, q := range queries {
				truth[i] = q.ExactMinimize(d)[0]
			}
			// worst excess = max (ans−truth)²/2, worst answer err = max |ans−truth|.
			report := func(method string, answers []float64, updates int) (float64, float64) {
				var we, wa float64
				for i, a := range answers {
					if math.IsNaN(a) {
						continue
					}
					diff := math.Abs(a - truth[i])
					if diff > wa {
						wa = diff
					}
					if e := diff * diff / 2; e > we {
						we = e
					}
				}
				t.Add(method, we, wa, updates)
				return we, wa
			}

			// (a) CM generalization with the Laplace linear oracle, at the
			// excess-risk target its theory speaks (α here is excess).
			cmSrv, err := core.New(core.Config{
				Accountant: cfg.Accountant,
				Eps:        eps, Delta: delta,
				Alpha: 0.12, Beta: 0.05, K: k, S: 1,
				Oracle: erm.LaplaceLinear{}, TBudget: 10,
			}, data, src.Split())
			if err != nil {
				return nil, err
			}
			cmAns := make([]float64, k)
			for i := range cmAns {
				cmAns[i] = math.NaN()
			}
			for i, q := range queries {
				theta, err := cmSrv.Answer(q)
				if err == core.ErrHalted {
					break
				}
				if err != nil {
					return nil, err
				}
				cmAns[i] = theta[0]
			}
			cmWorst, _ := report("cm-pmw", cmAns, cmSrv.Updates())

			// (b) HR10's linear PMW (answer-unit target 0.1).
			hrSrv, err := core.NewLinearPMW(core.LinearPMWConfig{
				Accountant: cfg.Accountant,
				Eps:        eps, Delta: delta, Alpha: 0.1, K: k, TBudget: 60,
			}, data, src.Split())
			if err != nil {
				return nil, err
			}
			hrAns := make([]float64, k)
			for i := range hrAns {
				hrAns[i] = math.NaN()
			}
			for i, q := range queries {
				ans, err := hrSrv.Answer(q)
				if err == core.ErrHalted {
					break
				}
				if err != nil {
					return nil, err
				}
				hrAns[i] = ans
			}
			hrWorst, _ := report("hr10-pmw", hrAns, hrSrv.Updates())

			// (c) Offline MWEM on the same workload.
			mwemRes, err := core.MWEM(core.MWEMConfig{Eps: eps, Delta: delta, Rounds: 20}, data, src.Split(), queries)
			if err != nil {
				return nil, err
			}
			mwemWorst, _ := report("mwem", mwemRes.Answers, len(mwemRes.Selected))

			// (d) Per-query Laplace under strong composition.
			eps0, _, err := mech.SplitBudget(eps, delta, k)
			if err != nil {
				return nil, err
			}
			csrc := src.Split()
			compAns := make([]float64, k)
			for i := range queries {
				compAns[i] = vecmath.Clamp(truth[i]+csrc.Laplace(1/(float64(n)*eps0)), 0, 1)
			}
			compWorst, _ := report("composition", compAns, 0)

			if cmWorst < compWorst && hrWorst < compWorst && mwemWorst < compWorst {
				t.Note("MATCH: all PMW-family mechanisms beat composition at k=%d", k)
			} else {
				t.Note("composition still competitive at k=%d (crossover is n-dependent; full mode uses larger k)", k)
			}
			t.Note("cm-pmw's answer error reflects the quadratic embedding: excess α maps to answer error √(2α)")
			return t, nil
		},
	}
}
