package accuracy

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/sample"
	"repro/internal/universe"
)

func grid(t *testing.T) *universe.LabeledGrid {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func linQuery(t *testing.T, coord int) convex.Loss {
	t.Helper()
	lq, err := convex.NewLinearQuery(fmt.Sprintf("q%d", coord), func(x []float64) float64 {
		if x[coord] > 0 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	return lq
}

// exactAnswerer answers every linear query exactly on a fixed histogram.
type exactAnswerer struct{ h *histogram.Histogram }

func (a exactAnswerer) Answer(l convex.Loss) ([]float64, error) {
	lq, ok := l.(*convex.LinearQuery)
	if !ok {
		return nil, fmt.Errorf("not a linear query")
	}
	return lq.ExactMinimize(a.h), nil
}

// haltingAnswerer fails after a fixed number of answers.
type haltingAnswerer struct {
	inner Answerer
	limit int
	n     int
}

func (a *haltingAnswerer) Answer(l convex.Loss) ([]float64, error) {
	if a.n >= a.limit {
		return nil, fmt.Errorf("halted")
	}
	a.n++
	return a.inner.Answer(l)
}

func TestFixedAdversary(t *testing.T) {
	losses := []convex.Loss{linQuery(t, 0), linQuery(t, 1)}
	adv := &Fixed{Losses: losses}
	l, ok := adv.Next(nil)
	if !ok || l != losses[0] {
		t.Fatal("first query wrong")
	}
	l, ok = adv.Next(make([]Exchange, 1))
	if !ok || l != losses[1] {
		t.Fatal("second query wrong")
	}
	if _, ok := adv.Next(make([]Exchange, 2)); ok {
		t.Fatal("exhausted adversary kept going")
	}
}

func TestGreedyOrdersByError(t *testing.T) {
	g := grid(t)
	// Dataset concentrated on element 0; the indicator of element 0 has
	// huge error under the uniform reference, generic halfspace queries
	// less so.
	pm, err := dataset.PointMass(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := g.Point(0)
	indicator, err := convex.NewLinearQuery("ind", func(x []float64) float64 {
		for i := range target {
			if math.Abs(x[i]-target[i]) > 1e-9 {
				return 0
			}
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	constant, err := convex.NewLinearQuery("const", func(x []float64) float64 { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	pool := []convex.Loss{constant, indicator}
	adv, err := NewGreedy(pool, pm, histogram.Uniform(g), 200)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := adv.Next(nil)
	if !ok || first != convex.Loss(indicator) {
		t.Errorf("greedy did not front-load the worst query")
	}
	if _, ok := adv.Next(make([]Exchange, 2)); ok {
		t.Error("exhausted greedy kept going")
	}
}

func TestAnswerAndDatabaseErr(t *testing.T) {
	g := grid(t)
	src := sample.New(1)
	pop, err := dataset.Skewed(g, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.SampleFrom(src, pop, 20000)
	d := data.Histogram()
	l := linQuery(t, 0)
	lq := l.(*convex.LinearQuery)
	truth := lq.ExactMinimize(d)[0]

	// AnswerErr at the truth is 0; away from it it is (θ−truth)²/2.
	e, err := AnswerErr(l, d, []float64{truth}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-9 {
		t.Errorf("err at truth = %v", e)
	}
	off := truth + 0.3
	if off > 1 {
		off = truth - 0.3
	}
	e, err = AnswerErr(l, d, []float64{off}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-0.045) > 1e-6 {
		t.Errorf("err at offset = %v, want 0.045", e)
	}

	// DatabaseErr of D against itself is 0; of the uniform prior it equals
	// the answer error of the uniform answer.
	e, err = DatabaseErr(l, d, d, 400)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-9 {
		t.Errorf("DatabaseErr self = %v", e)
	}
	uni := histogram.Uniform(g)
	de, err := DatabaseErr(l, d, uni, 400)
	if err != nil {
		t.Fatal(err)
	}
	uniAns := lq.ExactMinimize(uni)
	ae, err := AnswerErr(l, d, uniAns, 400)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(de-ae) > 1e-9 {
		t.Errorf("DatabaseErr %v != AnswerErr of D′ minimizer %v", de, ae)
	}
}

func TestRunGameExactAnswererHasZeroError(t *testing.T) {
	g := grid(t)
	src := sample.New(2)
	pop, _ := dataset.Skewed(g, 1.0)
	data := dataset.SampleFrom(src, pop, 20000)
	pool := []convex.Loss{linQuery(t, 0), linQuery(t, 1), linQuery(t, 2)}
	res, err := RunGame(exactAnswerer{data.Histogram()}, &Fixed{Losses: pool}, data, GameConfig{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transcript) != 3 {
		t.Fatalf("transcript length %d", len(res.Transcript))
	}
	if res.MaxErr > 1e-9 {
		t.Errorf("exact answerer MaxErr = %v", res.MaxErr)
	}
	if res.HaltedEarly {
		t.Error("spurious halt")
	}
	if !math.IsNaN(res.MaxPopErr) {
		t.Error("MaxPopErr set without population")
	}
}

func TestRunGameRespectsK(t *testing.T) {
	g := grid(t)
	src := sample.New(3)
	pop, _ := dataset.Skewed(g, 1.0)
	data := dataset.SampleFrom(src, pop, 5000)
	pool := []convex.Loss{linQuery(t, 0), linQuery(t, 1), linQuery(t, 2)}
	res, err := RunGame(exactAnswerer{data.Histogram()}, &Fixed{Losses: pool}, data, GameConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transcript) != 2 {
		t.Errorf("K not respected: %d answers", len(res.Transcript))
	}
	if _, err := RunGame(exactAnswerer{data.Histogram()}, &Fixed{}, data, GameConfig{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestRunGameRecordsHalt(t *testing.T) {
	g := grid(t)
	src := sample.New(4)
	pop, _ := dataset.Skewed(g, 1.0)
	data := dataset.SampleFrom(src, pop, 5000)
	pool := []convex.Loss{linQuery(t, 0), linQuery(t, 1), linQuery(t, 2)}
	ha := &haltingAnswerer{inner: exactAnswerer{data.Histogram()}, limit: 1}
	res, err := RunGame(ha, &Fixed{Losses: pool}, data, GameConfig{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HaltedEarly {
		t.Error("halt not recorded")
	}
	if len(res.Transcript) != 1 {
		t.Errorf("transcript = %d", len(res.Transcript))
	}
}

// Generalization: answering from the sample, errors measured on the
// population are small when the sample is large (§1.3's premise).
func TestRunGameWithPopulation(t *testing.T) {
	g := grid(t)
	src := sample.New(5)
	pop, _ := dataset.Skewed(g, 1.5)
	data := dataset.SampleFrom(src, pop, 50000)
	pool := []convex.Loss{linQuery(t, 0), linQuery(t, 1)}
	res, err := RunGame(exactAnswerer{data.Histogram()}, &Fixed{Losses: pool}, data, GameConfig{K: 10, Population: pop})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.MaxPopErr) {
		t.Fatal("population error not measured")
	}
	if res.MaxPopErr > 0.01 {
		t.Errorf("generalization error = %v at n=50000", res.MaxPopErr)
	}
	for _, ex := range res.Transcript {
		if math.IsNaN(ex.PopErr) {
			t.Error("exchange missing PopErr")
		}
	}
}

// The DP estimator must (a) report ~ε for randomized response at parameter
// ε, and (b) blow up for a mechanism that ignores its noise.
func TestEstimateDP(t *testing.T) {
	eps := 1.0
	p := math.Exp(eps) / (1 + math.Exp(eps))
	rr := func(bit int) func(int64) string {
		return func(seed int64) string {
			src := sample.New(seed)
			out := bit
			if !src.Bernoulli(p) {
				out = 1 - bit
			}
			return fmt.Sprintf("%d", out)
		}
	}
	est, err := EstimateDP(200000, 0.01, rr(0), rr(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.WorstLogRatio-eps) > 0.1 {
		t.Errorf("randomized response log-ratio = %v, want ~%v", est.WorstLogRatio, eps)
	}
	if est.Outcomes != 2 {
		t.Errorf("outcomes = %d", est.Outcomes)
	}

	// Broken mechanism: deterministic release of the bit.
	broken := func(bit int) func(int64) string {
		return func(int64) string { return fmt.Sprintf("%d", bit) }
	}
	est, err = EstimateDP(1000, 0.01, broken(0), broken(1))
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint supports: no common outcome passes the threshold, so the
	// ratio cannot be certified — but the outcome count exposes it.
	if est.WorstLogRatio != 0 || est.Outcomes != 2 {
		t.Logf("broken-mechanism estimate = %+v (disjoint supports)", est)
	}
}

func TestEstimateDPValidation(t *testing.T) {
	id := func(int64) string { return "x" }
	if _, err := EstimateDP(10, 0.01, id, id); err == nil {
		t.Error("too few runs accepted")
	}
	if _, err := EstimateDP(1000, 0, id, id); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := EstimateDP(1000, 1, id, id); err == nil {
		t.Error("threshold 1 accepted")
	}
}

// Fixed asks a fixed list of losses in order. It is the tests' adversary
// for driving RunGame; no program path uses it.
type Fixed struct {
	Losses []convex.Loss
}

// Next implements Adversary.
func (f *Fixed) Next(history []Exchange) (convex.Loss, bool) {
	if len(history) >= len(f.Losses) {
		return nil, false
	}
	return f.Losses[len(history)], true
}
