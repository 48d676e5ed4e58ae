package optimize

import (
	"math"
	"testing"

	"repro/internal/convex"
	"repro/internal/histogram"
	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/vecmath"
)

func grid(t *testing.T) *universe.LabeledGrid {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMinimizeSquaredAgainstProbes(t *testing.T) {
	g := grid(t)
	ball, _ := convex.NewL2Ball(2, 1)
	sq, _ := convex.NewSquared("sq", ball, []float64{0, 0, 1}, 1, 1)
	h := histogram.Uniform(g)
	res, err := Minimize(sq, h, Options{MaxIters: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if !ball.Contains(res.Theta, 1e-9) {
		t.Fatal("minimizer outside domain")
	}
	src := sample.New(1)
	for i := 0; i < 500; i++ {
		probe := ball.Project(src.GaussianVec(2, 1))
		if pv := convex.EvalOn(nil, sq, probe, h); pv < res.Value-1e-4 {
			t.Fatalf("probe %v beats solver: %v < %v", probe, pv, res.Value)
		}
	}
}

func TestMinimizeStronglyConvexFast(t *testing.T) {
	g := grid(t)
	ball, _ := convex.NewL2Ball(2, 1)
	sq, _ := convex.NewSquared("sq", ball, []float64{0, 0, 1}, 1, 1)
	rg, _ := convex.NewRegularized(sq, 1.0)
	h := histogram.Uniform(g)
	res, err := Minimize(rg, h, Options{MaxIters: 800})
	if err != nil {
		t.Fatal(err)
	}
	// Strongly convex objective: verify first-order optimality via small
	// gradient at an interior optimum, or projection stationarity.
	grad := make([]float64, len(res.Theta))
	convex.NewSweep(nil, rg, h).Grad(grad, res.Theta)
	moved := vecmath.Dist2(ball.Project(vecmath.AddScaled(vecmath.Copy(res.Theta), -0.1, grad)), res.Theta)
	if moved > 1e-3 {
		t.Errorf("stationarity violated: projected step moves %v", moved)
	}
}

func TestMinimizeLinearQueryClosedForm(t *testing.T) {
	g := grid(t)
	lq, _ := convex.NewLinearQuery("q", func(x []float64) float64 {
		if x[1] > 0 {
			return 1
		}
		return 0
	})
	h := histogram.Uniform(g)
	res, err := Minimize(lq, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 0 || !res.Converged {
		t.Errorf("closed form not used: iters=%d", res.Iters)
	}
	if math.Abs(res.Theta[0]-1.0/3) > 1e-9 {
		t.Errorf("answer = %v, want 1/3", res.Theta[0])
	}
}

func TestMinimizeLinearFormMatchesClosedForm(t *testing.T) {
	g := grid(t)
	ball, _ := convex.NewL2Ball(2, 1)
	lf, _ := convex.NewLinearForm("lf", ball, []float64{0.8, 0.6, 0}, math.Sqrt2)
	src := sample.New(2)
	// Random non-uniform histogram.
	p := make([]float64, g.Size())
	var z float64
	for i := range p {
		p[i] = src.Exponential(1)
		z += p[i]
	}
	for i := range p {
		p[i] /= z
	}
	h, err := histogram.FromProbs(g, p)
	if err != nil {
		t.Fatal(err)
	}
	exact := lf.ExactMinimize(h)
	res, err := Minimize(lf, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.Dist2(exact, res.Theta) > 1e-9 {
		t.Errorf("fast path disagreement: %v vs %v", exact, res.Theta)
	}
	// Cross-check against the generic iterative path by wrapping the loss
	// to hide the ExactSolvable interface.
	wrapped := hideExact{lf}
	res2, err := Minimize(wrapped, h, Options{MaxIters: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if convex.EvalOn(nil, lf, res2.Theta, h) > convex.EvalOn(nil, lf, exact, h)+1e-3 {
		t.Errorf("iterative path much worse than closed form: %v vs %v",
			convex.EvalOn(nil, lf, res2.Theta, h), convex.EvalOn(nil, lf, exact, h))
	}
}

// hideExact wraps a loss, deliberately dropping its ExactSolvable
// implementation so tests can exercise the generic solver path. It embeds
// the loss, so its range kernels are the loss's own.
type hideExact struct{ convex.Loss }

func TestMinimizeInitValidation(t *testing.T) {
	g := grid(t)
	ball, _ := convex.NewL2Ball(2, 1)
	sq, _ := convex.NewSquared("sq", ball, []float64{0, 0, 1}, 1, 1)
	h := histogram.Uniform(g)
	if _, err := Minimize(sq, h, Options{Init: []float64{1, 2, 3}}); err == nil {
		t.Error("wrong-dim init accepted")
	}
	// Out-of-domain init gets projected, not rejected.
	res, err := Minimize(sq, h, Options{Init: []float64{10, 10}, MaxIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !ball.Contains(res.Theta, 1e-9) {
		t.Error("result escaped domain")
	}
}

func TestExcess(t *testing.T) {
	g := grid(t)
	lq, _ := convex.NewLinearQuery("q", func(x []float64) float64 {
		if x[0] > 0 {
			return 1
		}
		return 0
	})
	h := histogram.Uniform(g)
	// At the exact answer the excess is 0.
	e, err := Excess(lq, []float64{1.0 / 3}, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-9 {
		t.Errorf("excess at optimum = %v", e)
	}
	// Away from it, excess = (1/2)(θ−q̄)² offset... verify against direct
	// computation.
	theta := []float64{0.9}
	want := convex.EvalOn(nil, lq, theta, h) - convex.EvalOn(nil, lq, []float64{1.0 / 3}, h)
	e, err = Excess(lq, theta, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-want) > 1e-9 {
		t.Errorf("excess = %v, want %v", e, want)
	}
	// Excess is never negative.
	if e < 0 {
		t.Error("negative excess")
	}
}

func TestMinimizeConvergesFlag(t *testing.T) {
	g := grid(t)
	ball, _ := convex.NewL2Ball(2, 1)
	sq, _ := convex.NewSquared("sq", ball, []float64{0, 0, 1}, 1, 1)
	rg, _ := convex.NewRegularized(sq, 2.0)
	h := histogram.Uniform(g)
	res, err := Minimize(rg, h, Options{MaxIters: 5000, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Log("strongly convex solve did not trigger Tol (acceptable but unexpected)")
	}
	if res.Iters == 0 {
		t.Error("no iterations recorded")
	}
}

// TestMinimizeFrankWolfeGap certifies Minimize's output by its
// Frank–Wolfe gap g(θ) = max_{s∈Θ} ⟨∇ℓ(θ; h), θ − s⟩ (Jaggi, "Revisiting
// Frank–Wolfe", ICML 2013), read off one MinimizeLinear call. Convexity
// gives ℓ(θ) − ℓ* ≤ g(θ), so the gap bounds the excess risk. The
// histogram is random so that the optimum is non-trivial; the losses are
// a squared loss and every registry kind that builds at its defaults on
// the grid.
func TestMinimizeFrankWolfeGap(t *testing.T) {
	g := grid(t)
	src := sample.New(1)
	p := make([]float64, g.Size())
	var z float64
	for i := range p {
		p[i] = src.Exponential(1)
		z += p[i]
	}
	for i := range p {
		p[i] /= z
	}
	h, err := histogram.FromProbs(g, p)
	if err != nil {
		t.Fatal(err)
	}
	ball, _ := convex.NewL2Ball(2, 1)
	sq, _ := convex.NewSquared("sq", ball, []float64{0, 0, 1}, 1, 1)
	losses := []convex.Loss{sq}
	for _, kind := range convex.Kinds() {
		if l, err := convex.Build(g, convex.Spec{Kind: kind}); err == nil {
			losses = append(losses, l)
		}
	}
	for _, l := range losses {
		res, err := Minimize(l, h, Options{MaxIters: 3000})
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		grad := make([]float64, len(res.Theta))
		convex.NewSweep(nil, l, h).Grad(grad, res.Theta)
		s := l.Domain().MinimizeLinear(grad)
		gap := vecmath.Dot(grad, vecmath.Sub(res.Theta, s))
		if gap > 1e-4 {
			t.Errorf("%s: Frank–Wolfe gap %v at Minimize's θ = %v, want ≤ 1e-4", l.Name(), gap, res.Theta)
		}
	}
}
