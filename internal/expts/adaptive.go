package expts

import (
	"fmt"

	"repro/internal/convex"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/histogram"
	"repro/internal/sample"
	"repro/internal/universe"
)

// adaptiveGeneralization reproduces the §1.3 connection between
// differential privacy and generalization in adaptive data analysis
// ([DFH+15, HU14, BSSU15]): an analyst who sees exact sample answers can
// craft a final query that chases the sample's noise (large
// sample-vs-population gap), while an analyst restricted to a DP
// transcript cannot.
func adaptiveGeneralization() Experiment {
	return Experiment{
		ID:    "X2.ADAPT",
		Title: "adaptive data analysis (§1.3): overfitting gap, exact vs private answers",
		PaperClaim: "DP mechanisms bound the information the transcript leaks about the " +
			"sample, so the adaptively crafted final query generalizes; exact answers " +
			"allow a gap ~ the full sampling noise",
		Run: func(cfg RunConfig) (*Table, error) {
			dim := 10
			u, err := universe.NewHypercube(dim)
			if err != nil {
				return nil, err
			}
			pop := histogram.Uniform(u) // every coordinate query ≡ 1/2
			ns := []int{100, 400, 1600}
			trials := 20
			if cfg.Quick {
				ns = []int{100, 400}
				trials = 8
			}
			t := &Table{
				Name:       "X2.ADAPT",
				Title:      fmt.Sprintf("mean final-query sample-vs-population gap over %d trials (%d probes)", trials, dim),
				PaperClaim: "exact gap ≈ sampling noise ~ 1/√n; private gap ≪ exact gap",
				Columns:    []string{"n", "gap_exact", "gap_private"},
			}
			src := sample.New(cfg.Seed)
			for _, n := range ns {
				var gapExact, gapPrivate float64
				for trial := 0; trial < trials; trial++ {
					tsrc := src.Split()
					data := dataset.SampleFrom(tsrc, pop, n)
					d := data.Histogram()
					probes := make([]*convex.LinearQuery, dim)
					for j := range probes {
						j := j
						probes[j], err = convex.NewLinearQuery(fmt.Sprintf("x%d", j), func(x []float64) float64 {
							if x[j] > 0 {
								return 1
							}
							return 0
						})
						if err != nil {
							return nil, err
						}
					}
					// Exact analyst: sees the raw sample answers.
					exactSigns := make([]float64, dim)
					for j, q := range probes {
						exactSigns[j] = signOf(q.ExactMinimize(d)[0] - 0.5)
					}
					// Private analyst: sees PMW answers.
					srv, err := core.New(core.Config{
						Accountant: cfg.Accountant,
						Eps:        0.5, Delta: 1e-6, Alpha: 0.2, Beta: 0.05,
						K: dim, S: 1, Oracle: erm.LaplaceLinear{}, TBudget: 4,
					}, data, tsrc.Split())
					if err != nil {
						return nil, err
					}
					privSigns := make([]float64, dim)
					for j, q := range probes {
						theta, err := srv.Answer(q)
						if err == core.ErrHalted {
							privSigns[j] = 1 // prior answer 1/2 → sign +1
							continue
						}
						if err != nil {
							return nil, err
						}
						privSigns[j] = signOf(theta[0] - 0.5)
					}
					gapExact += overfitGap(d, dim, exactSigns)
					gapPrivate += overfitGap(d, dim, privSigns)
				}
				t.Add(n, gapExact/float64(trials), gapPrivate/float64(trials))
			}
			t.Note("population value of the crafted query is exactly 1/2 by symmetry; the gap is pure overfitting")
			return t, nil
		},
	}
}

// overfitGap evaluates the noise-chasing final query: the per-record
// fraction of coordinates agreeing with the observed deviation signs. Its
// population mean is 1/2; its sample mean exceeds 1/2 by the amount of
// sampling noise the analyst reconstructed.
func overfitGap(d *histogram.Histogram, dim int, signs []float64) float64 {
	var mean float64
	buf := make([]float64, d.U.Dim())
	for i, p := range d.P {
		if p == 0 {
			continue
		}
		x := d.U.PointInto(i, buf)
		var agree float64
		for j := 0; j < dim; j++ {
			if x[j]*signs[j] > 0 {
				agree++
			}
		}
		mean += p * agree / float64(dim)
	}
	return mean - 0.5
}

func signOf(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
