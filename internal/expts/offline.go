package expts

import (
	"fmt"

	"repro/internal/convex"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/sample"
)

// offlineComparison compares the online algorithm (Figure 3) with the
// offline batch variant sketched in §1.2 ([GHRU11, GRU12, HLM12] style):
// the offline algorithm sees all k losses up front and each round privately
// selects the globally worst-answered one, so it should use its update
// budget at least as effectively as the online algorithm, which must react
// to whatever order the analyst chooses.
func offlineComparison() Experiment {
	return Experiment{
		ID:    "X3.OFFLINE",
		Title: "online (Fig. 3) vs offline (MWEM-style) PMW for CM queries",
		PaperClaim: "the offline variant's exponential-mechanism selection targets the " +
			"globally worst query per round; with equal budgets it matches or beats the " +
			"online algorithm on a fixed workload",
		Run: func(cfg RunConfig) (*Table, error) {
			g, err := stdGrid()
			if err != nil {
				return nil, err
			}
			k := 40
			rounds := 10
			if cfg.Quick {
				k = 20
				rounds = 6
			}
			eps, delta := 1.0, 1e-6
			t := &Table{
				Name:       "X3.OFFLINE",
				Title:      fmt.Sprintf("max excess over k=%d squared-loss queries (ε=1, %d updates each)", k, rounds),
				PaperClaim: "offline ≤ online (global selection uses updates better)",
				Columns:    []string{"variant", "max_excess", "updates"},
			}
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
			oracle := erm.NoisyGD{Iters: 40}

			// Online run.
			onlineCfg := core.Config{
				Accountant: cfg.Accountant,
				Eps:        eps, Delta: delta, Alpha: 0.05, Beta: 0.05,
				K: k, S: s, Oracle: oracle, TBudget: rounds,
			}
			onlineAns, srv, err := runPMW(onlineCfg, data, src.Split(), losses)
			if err != nil {
				return nil, err
			}
			onlineErr, err := maxExcess(losses, onlineAns, d)
			if err != nil {
				return nil, err
			}
			t.Add("online", onlineErr, srv.Updates())

			// Offline run with the same number of rounds.
			res, err := core.AnswerOffline(core.OfflineConfig{
				Accountant: cfg.Accountant,
				Eps:        eps, Delta: delta, Rounds: rounds, S: s, Oracle: oracle,
			}, data, src.Split(), losses)
			if err != nil {
				return nil, err
			}
			offlineErr, err := maxExcess(losses, res.Answers, d)
			if err != nil {
				return nil, err
			}
			t.Add("offline", offlineErr, len(res.Selected))

			if offlineErr <= onlineErr*1.25 {
				t.Note("MATCH: offline within 1.25× of online (%.4g vs %.4g)", offlineErr, onlineErr)
			} else {
				t.Note("offline worse than online on this seed (%.4g vs %.4g)", offlineErr, onlineErr)
			}
			return t, nil
		},
	}
}
