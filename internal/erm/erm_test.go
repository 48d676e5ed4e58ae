package erm

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/universe"
)

// fixture bundles a universe, a loss, and a sampled dataset whose optimum
// is informative (labels follow a linear model).
type fixture struct {
	grid *universe.LabeledGrid
	data *dataset.Dataset
}

func makeFixture(t *testing.T, n int, seed int64) fixture {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(seed)
	pop, err := dataset.LinearModel(src, g, []float64{0.8, -0.4}, 0.1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{grid: g, data: dataset.SampleFrom(src, pop, n)}
}

func squaredLoss(t *testing.T) *convex.Squared {
	t.Helper()
	ball, err := convex.NewL2Ball(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := convex.NewSquared("sq", ball, []float64{0, 0, 1}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sq
}

// excess computes the excess empirical risk of an oracle answer.
func excess(t *testing.T, l convex.Loss, theta []float64, fx fixture) float64 {
	t.Helper()
	e, err := optimize.Excess(l, theta, fx.data.Histogram(), optimize.Options{MaxIters: 1500})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Contract test shared by all oracles: answers live in the domain, and at
// large n with generous budget the excess risk is small; shrinking n by 20×
// visibly hurts (except for NonPrivate, which is noiseless).
func TestOracleContracts(t *testing.T) {
	sq := squaredLoss(t)
	rg, err := convex.NewRegularized(sq, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	oracles := []struct {
		o       Oracle
		l       convex.Loss
		alpha   float64 // acceptable excess at n = 4000
		private bool
	}{
		{NoisyGD{Iters: 40}, sq, 0.05, true},
		{OutputPerturbation{}, rg, 0.05, true},
		{NetExpMech{Candidates: 200}, sq, 0.05, true},
		{GLMReduction{ReducedDim: 2, Iters: 40}, sq, 0.08, true},
		{NonPrivate{}, sq, 0.005, false},
	}
	for _, tc := range oracles {
		t.Run(tc.o.Name(), func(t *testing.T) {
			fx := makeFixture(t, 4000, 42)
			var worst float64
			for trial := 0; trial < 5; trial++ {
				src := sample.New(int64(100 + trial))
				theta, err := tc.o.Answer(src, tc.l, fx.data, 1.0, 1e-6)
				if err != nil {
					t.Fatal(err)
				}
				if !tc.l.Domain().Contains(theta, 1e-6) {
					t.Fatalf("answer outside domain: %v", theta)
				}
				if e := excess(t, tc.l, theta, fx); e > worst {
					worst = e
				}
			}
			if worst > tc.alpha {
				t.Errorf("worst excess over trials = %v, want ≤ %v", worst, tc.alpha)
			}
		})
	}
}

// Privacy noise must actually bite: at tiny n and tight ε, private oracle
// answers should be visibly worse than NonPrivate on average.
func TestPrivacyNoiseDegradesSmallN(t *testing.T) {
	sq := squaredLoss(t)
	fx := makeFixture(t, 30, 7)
	np := NonPrivate{}
	srcNP := sample.New(1)
	thetaNP, err := np.Answer(srcNP, sq, fx.data, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseline := excess(t, sq, thetaNP, fx)

	o := NoisyGD{Iters: 40}
	var total float64
	trials := 10
	for i := 0; i < trials; i++ {
		src := sample.New(int64(200 + i))
		theta, err := o.Answer(src, sq, fx.data, 0.2, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		total += excess(t, sq, theta, fx)
	}
	avg := total / float64(trials)
	if avg <= baseline+1e-6 {
		t.Errorf("NoisyGD at n=30, ε=0.2 matched non-private baseline (%v vs %v) — noise seems absent", avg, baseline)
	}
}

func TestNoisyGDValidation(t *testing.T) {
	sq := squaredLoss(t)
	fx := makeFixture(t, 100, 3)
	src := sample.New(1)
	if _, err := (NoisyGD{}).Answer(src, sq, fx.data, 0, 1e-6); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := (NoisyGD{}).Answer(src, sq, fx.data, 1, 0); err == nil {
		t.Error("delta=0 accepted")
	}
}

func TestOutputPerturbationRequiresStrongConvexity(t *testing.T) {
	sq := squaredLoss(t)
	fx := makeFixture(t, 100, 4)
	src := sample.New(1)
	if _, err := (OutputPerturbation{}).Answer(src, sq, fx.data, 1, 1e-6); err == nil {
		t.Error("plain convex loss accepted")
	}
	rg, _ := convex.NewRegularized(sq, 0.5)
	if _, err := (OutputPerturbation{}).Answer(src, rg, fx.data, 1, 0); err == nil {
		t.Error("delta=0 accepted")
	}
}

// Stronger convexity → smaller output noise → better accuracy at fixed n,
// the qualitative content of Theorem 4.5. Following the paper's convention,
// all compared losses are renormalized to Lipschitz constant 1 (otherwise
// the ridge term inflates L with σ and cancels the benefit).
func TestOutputPerturbationImprovesWithSigma(t *testing.T) {
	sq := squaredLoss(t)
	fx := makeFixture(t, 300, 5)
	avgExcess := func(sigma float64) float64 {
		rg, err := convex.NewRegularized(sq, sigma)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := convex.NewUnitLipschitz(rg)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		trials := 12
		for i := 0; i < trials; i++ {
			src := sample.New(int64(300 + i))
			theta, err := (OutputPerturbation{}).Answer(src, norm, fx.data, 0.3, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			total += excess(t, norm, theta, fx)
		}
		return total / float64(trials)
	}
	weak := avgExcess(0.05)
	strong := avgExcess(2.0)
	if strong >= weak {
		t.Errorf("σ=2 excess (%v) not better than σ=0.05 excess (%v)", strong, weak)
	}
}

func TestNetExpMechPicksGoodCandidate(t *testing.T) {
	sq := squaredLoss(t)
	fx := makeFixture(t, 5000, 6)
	src := sample.New(2)
	theta, err := (NetExpMech{Candidates: 300}).Answer(src, sq, fx.data, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pure DP (δ=0) works for the exponential mechanism.
	if e := excess(t, sq, theta, fx); e > 0.05 {
		t.Errorf("excess = %v", e)
	}
}

func TestGLMReductionRequiresGLM(t *testing.T) {
	fx := makeFixture(t, 100, 8)
	src := sample.New(1)
	lf, err := convex.NewLinearForm("lf", mustBall(t, 2, 1), []float64{1, 0, 0}, math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (GLMReduction{}).Answer(src, lf, fx.data, 1, 1e-6); err == nil {
		t.Error("non-GLM loss accepted")
	}
	sq := squaredLoss(t)
	if _, err := (GLMReduction{}).Answer(src, sq, fx.data, 1, 0); err == nil {
		t.Error("delta=0 accepted")
	}
}

// TestGLMReductionReadsLossLabel checks that GLMReduction fits the label
// the loss itself defines: squared with target e_0 regresses the feature
// x[0], a different query from target e_label, so under one seed the two
// answers must differ. Both losses are built with the same (valid) bounds,
// so they differ only in their label: reading the last coordinate for both
// would fit the label twice and return one θ.
func TestGLMReductionReadsLossLabel(t *testing.T) {
	fx := makeFixture(t, 2000, 9)
	var answers [][]float64
	for _, target := range [][]float64{{0, 0, 1}, {1, 0, 0}} {
		sq, err := convex.NewSquared("sq", mustBall(t, 2, 1), target, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		theta, err := (GLMReduction{}).Answer(sample.New(9), sq, fx.data, 1, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, theta)
	}
	if reflect.DeepEqual(answers[0], answers[1]) {
		t.Fatalf("targets e_label and e_0 return the same θ = %v", answers[0])
	}
}

func mustBall(t *testing.T, d int, r float64) *convex.L2Ball {
	t.Helper()
	b, err := convex.NewL2Ball(d, r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Determinism: same seed, same answer — the reproducibility contract.
func TestOraclesDeterministicPerSeed(t *testing.T) {
	sq := squaredLoss(t)
	fx := makeFixture(t, 500, 9)
	oracles := []Oracle{NoisyGD{Iters: 20}, NetExpMech{Candidates: 50}, GLMReduction{ReducedDim: 2, Iters: 20}}
	for _, o := range oracles {
		a, err := o.Answer(sample.New(77), sq, fx.data, 1, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		b, err := o.Answer(sample.New(77), sq, fx.data, 1, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: nondeterministic at equal seeds", o.Name())
				break
			}
		}
	}
}

// TestEnumeratingOraclesFailFastPastDenseLimit runs every served oracle
// that sweeps the universe on a 2^30-point product hypercube, with a loss
// it accepts. Each must return universe.ErrTooLarge before it enumerates a
// point, not after a sweep of 2^30 points. The test enforces its own
// deadline, so a regression fails here instead of hanging go test; the
// oracles take no context, so a timed-out Answer runs on until the test
// binary exits.
func TestEnumeratingOraclesFailFastPastDenseLimit(t *testing.T) {
	u, err := universe.NewProductHypercube(30)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dataset.New(u, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		oracle Oracle
		kind   string
	}{
		{NoisyGD{}, "positive"},
		{NetExpMech{}, "positive"},
		{OutputPerturbation{}, "positive"},
		{GLMReduction{}, "logistic"},
	}
	for _, c := range cases {
		l, err := convex.Build(u, convex.Spec{Kind: c.kind})
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.oracle.Answer(sample.New(1), l, data, 1, 1e-6)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, universe.ErrTooLarge) {
				t.Errorf("%s with %s: err = %v, want universe.ErrTooLarge", c.oracle.Name(), c.kind, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s with %s: Answer still running after 5s on |X| = 2^30", c.oracle.Name(), c.kind)
		}
	}
}
