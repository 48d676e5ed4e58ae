package baseline

import (
	"math"
	"testing"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/mech"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/universe"
)

func fixture(t *testing.T, n int) (*universe.LabeledGrid, *dataset.Dataset) {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(1)
	pop, err := dataset.Skewed(g, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g, dataset.SampleFrom(src, pop, n)
}

func linQuery(t *testing.T) convex.Loss {
	t.Helper()
	lq, err := convex.NewLinearQuery("q", func(x []float64) float64 {
		if x[0] > 0 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	return lq
}

func TestNewCompositionValidation(t *testing.T) {
	if _, err := NewComposition(nil, 1, 1e-6, 10); err == nil {
		t.Error("nil oracle accepted")
	}
	if _, err := NewComposition(erm.LaplaceLinear{}, 1, 1e-6, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewComposition(erm.LaplaceLinear{}, 1, 0, 10); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := NewComposition(erm.LaplaceLinear{}, 0, 1e-6, 10); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestPerQueryBudgetMatchesSplit(t *testing.T) {
	c, err := NewComposition(erm.LaplaceLinear{}, 1, 1e-6, 100)
	if err != nil {
		t.Fatal(err)
	}
	eps0, delta0 := c.eps0, c.delta0
	wantEps, wantDelta, err := mech.SplitBudget(1, 1e-6, 100)
	if err != nil {
		t.Fatal(err)
	}
	if eps0 != wantEps || delta0 != wantDelta {
		t.Errorf("budget = (%v,%v), want (%v,%v)", eps0, delta0, wantEps, wantDelta)
	}
}

func TestCompositionAnswersAndExhausts(t *testing.T) {
	_, data := fixture(t, 50000)
	c, err := NewComposition(erm.LaplaceLinear{}, 1, 1e-6, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(2)
	l := linQuery(t)
	for i := 0; i < 3; i++ {
		theta, err := c.Answer(src, l, data)
		if err != nil {
			t.Fatal(err)
		}
		if theta[0] < 0 || theta[0] > 1 {
			t.Errorf("answer %v outside [0,1]", theta)
		}
	}
	if c.answered != 3 {
		t.Errorf("Answered = %d", c.answered)
	}
	if _, err := c.Answer(src, l, data); err == nil {
		t.Error("answer beyond k accepted")
	}
}

// The defining weakness of the composition baseline: at fixed n and ε, its
// per-query accuracy degrades as k grows (per-query budget ~ ε/√k).
// Average answer error over the pool should be visibly worse at k = 2500
// than at k = 25.
func TestCompositionDegradesWithK(t *testing.T) {
	_, data := fixture(t, 2000)
	l := linQuery(t)
	exact, err := (Exact{}).Answer(l, data)
	if err != nil {
		t.Fatal(err)
	}
	avgAbsErr := func(k int) float64 {
		c, err := NewComposition(erm.LaplaceLinear{}, 0.5, 1e-6, k)
		if err != nil {
			t.Fatal(err)
		}
		src := sample.New(3)
		var total float64
		trials := 200
		for i := 0; i < trials; i++ {
			// Fresh baseline per trial so we can keep asking the same query.
			cc, _ := NewComposition(erm.LaplaceLinear{}, 0.5, 1e-6, k)
			_ = c
			theta, err := cc.Answer(src, l, data)
			if err != nil {
				t.Fatal(err)
			}
			total += math.Abs(theta[0] - exact[0])
		}
		return total / float64(trials)
	}
	small := avgAbsErr(25)
	large := avgAbsErr(2500)
	if large <= small {
		t.Errorf("k=2500 error (%v) not worse than k=25 error (%v)", large, small)
	}
	// Roughly √100 = 10× ratio; accept a loose band.
	if ratio := large / small; ratio < 3 {
		t.Errorf("degradation ratio = %v, want ≳ √(k2/k1)", ratio)
	}
}

func TestExactMatchesOptimize(t *testing.T) {
	_, data := fixture(t, 10000)
	l := linQuery(t)
	got, err := (Exact{}).Answer(l, data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimize.Minimize(l, data.Histogram(), optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-res.Theta[0]) > 1e-12 {
		t.Errorf("Exact = %v, optimize = %v", got, res.Theta)
	}
}
