package convex

import (
	"math"
	"testing"

	"repro/internal/histogram"
	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// testGrid builds a small labeled universe shared by loss tests.
func testGrid(t *testing.T) *universe.LabeledGrid {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// allLosses builds one instance of every loss family over the test grid.
func allLosses(t *testing.T) []Loss {
	t.Helper()
	ball, err := NewL2Ball(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := NewSquared("sq", ball, []float64{0, 0, 1}, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogistic("lg", ball, 0.1, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSmoothedHinge("sh", ball, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHuber("hb", ball, 0.3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewLinearForm("lf", ball, []float64{0.6, 0, 0.8}, math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := NewLinearQuery("lq", func(x []float64) float64 {
		if x[0] > 0 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := NewRegularized(sq, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPinball("pb", ball, 0.3, 0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// zmax = R·featBound = 1 over the unit ball with unit features.
	ps, err := NewPoisson("ps", ball, 1.0, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScaled(hb, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return []Loss{sq, lg, sh, hb, lf, lq, rg, pb, ps, sc}
}

// randomTheta draws a parameter in the loss's domain.
func randomTheta(src *sample.Source, dom Domain) []float64 {
	v := make([]float64, dom.Dim())
	for i := range v {
		v[i] = src.Gaussian(0, 1)
	}
	return dom.Project(v)
}

// TestGradientFiniteDifference checks every loss's analytic gradient against
// central finite differences at random interior points and records.
func TestGradientFiniteDifference(t *testing.T) {
	g := testGrid(t)
	src := sample.New(1)
	const h = 1e-6
	for _, l := range allLosses(t) {
		dom := l.Domain()
		d := dom.Dim()
		grad := make([]float64, d)
		for trial := 0; trial < 40; trial++ {
			// Stay strictly inside the domain so the loss is smooth there.
			theta := vecmath.Scale(0.7, randomTheta(src, dom))
			if _, ok := dom.(*Interval); ok {
				theta = []float64{0.3 + 0.4*src.Float64()}
			}
			x := g.Point(src.Intn(g.Size()))
			if d > len(x) {
				t.Fatalf("%s: domain dim %d exceeds record dim", l.Name(), d)
			}
			l.Grad(grad, theta, x)
			for i := 0; i < d; i++ {
				tp := vecmath.Copy(theta)
				tm := vecmath.Copy(theta)
				tp[i] += h
				tm[i] -= h
				fd := (l.Value(tp, x) - l.Value(tm, x)) / (2 * h)
				if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
					t.Errorf("%s: grad[%d] = %v, finite diff %v (θ=%v)", l.Name(), i, grad[i], fd, theta)
				}
			}
		}
	}
}

// TestConvexityAlongSegments verifies midpoint convexity of every loss in θ
// on random segments and records — the defining property of a CM query.
func TestConvexityAlongSegments(t *testing.T) {
	g := testGrid(t)
	src := sample.New(2)
	for _, l := range allLosses(t) {
		dom := l.Domain()
		for trial := 0; trial < 200; trial++ {
			a := randomTheta(src, dom)
			b := randomTheta(src, dom)
			mid := vecmath.AddScaled(vecmath.Scale(0.5, a), 0.5, b)
			x := g.Point(src.Intn(g.Size()))
			lhs := l.Value(mid, x)
			rhs := (l.Value(a, x) + l.Value(b, x)) / 2
			if lhs > rhs+1e-9 {
				t.Errorf("%s: convexity violated: f(mid)=%v > avg=%v", l.Name(), lhs, rhs)
			}
		}
	}
}

// CertifyLipschitz empirically verifies the loss's claimed Lipschitz bound
// by evaluating gradient norms at the given probe parameters over the whole
// universe (chunk-parallel on e), returning the largest observed norm.
// TestLipschitzCertified and TestRegistryCertifiesBounds compare it against
// Lipschitz().
func CertifyLipschitz(e *xeval.Engine, l Loss, u universe.Universe, probes [][]float64) float64 {
	d := l.Domain().Dim()
	var worst float64
	for _, th := range probes {
		m, ok := e.Max(u.Size(), func(lo, hi int) float64 {
			g := make([]float64, d)
			buf := make([]float64, u.Dim())
			var w float64
			for i := lo; i < hi; i++ {
				l.Grad(g, th, u.PointInto(i, buf))
				var n2 float64
				for _, v := range g {
					n2 += v * v
				}
				if n2 > w {
					w = n2
				}
			}
			return w
		})
		if ok {
			if n := math.Sqrt(m); n > worst {
				worst = n
			}
		}
	}
	return worst
}

// TestLipschitzCertified verifies the claimed Lipschitz constants against
// empirical gradient norms over the whole universe and many parameters.
func TestLipschitzCertified(t *testing.T) {
	g := testGrid(t)
	src := sample.New(3)
	probes := make([][]float64, 0, 60)
	for _, l := range allLosses(t) {
		dom := l.Domain()
		probes = probes[:0]
		for i := 0; i < 60; i++ {
			probes = append(probes, randomTheta(src, dom))
		}
		worst := CertifyLipschitz(nil, l, g, probes)
		if worst > l.Lipschitz()+1e-9 {
			t.Errorf("%s: empirical gradient norm %v exceeds certified %v", l.Name(), worst, l.Lipschitz())
		}
	}
}

// TestScaleBound verifies S against its definition by brute force:
// |⟨θ−θ′, ∇ℓ_x(θ)⟩| ≤ S over random pairs and all records.
func TestScaleBound(t *testing.T) {
	g := testGrid(t)
	src := sample.New(4)
	for _, l := range allLosses(t) {
		dom := l.Domain()
		s := ScaleBound(l)
		grad := make([]float64, dom.Dim())
		for trial := 0; trial < 100; trial++ {
			a := randomTheta(src, dom)
			b := randomTheta(src, dom)
			x := g.Point(src.Intn(g.Size()))
			l.Grad(grad, a, x)
			if got := math.Abs(vecmath.Dot(vecmath.Sub(a, b), grad)); got > s+1e-9 {
				t.Errorf("%s: |⟨θ−θ′,∇ℓ⟩| = %v > S = %v", l.Name(), got, s)
			}
		}
	}
}

// TestGLMScalarConsistency checks that each GLM's Scalar profile, read at
// the loss's own Label, agrees with its full Value/Grad through
// z = ⟨θ, feat(x)⟩. The registry-built cases on a grid whose labels reach 5
// also check the premise GLMReduction's sensitivity rests on:
// |Scalar′(z, Label(x))|·‖feat(x)‖ ≤ Lipschitz() over Θ × X. A squared loss
// with target e_0 breaks it when the label is taken to be the last
// coordinate instead of ⟨target, x⟩.
func TestGLMScalarConsistency(t *testing.T) {
	type glmCase struct {
		l         GLM
		u         universe.Universe
		lipschitz bool
	}
	g := testGrid(t)
	var cases []glmCase
	for _, l := range allLosses(t) {
		if gl, ok := l.(GLM); ok {
			cases = append(cases, glmCase{gl, g, false})
		}
	}
	if len(cases) != 6 {
		t.Fatalf("allLosses has %d GLM families, want 6", len(cases))
	}
	g5, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{
		{Kind: "squared", Params: []byte(`{"target":[1,0,0]}`)},
		{Kind: "squared"},
		{Kind: "logistic"},
		{Kind: "hinge"},
		{Kind: "huber"},
		{Kind: "pinball"},
	} {
		l, err := Build(g5, spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, glmCase{l.(GLM), g5, true})
	}
	src := sample.New(5)
	for _, c := range cases {
		l := c.l
		d := l.Domain().Dim()
		grad := make([]float64, d)
		for trial := 0; trial < 50; trial++ {
			theta := randomTheta(src, l.Domain())
			x := c.u.Point(src.Intn(c.u.Size()))
			var z float64
			for i := 0; i < d; i++ {
				z += theta[i] * x[i]
			}
			v, dv := l.Scalar(z, l.Label(x))
			if got := l.Value(theta, x); math.Abs(got-v) > 1e-9 {
				t.Errorf("%s: Value=%v but Scalar=%v", l.Name(), got, v)
			}
			l.Grad(grad, theta, x)
			// Grad must equal dv·feat(x).
			for i := 0; i < d; i++ {
				if math.Abs(grad[i]-dv*x[i]) > 1e-9 {
					t.Errorf("%s: grad[%d]=%v, want dv·x=%v", l.Name(), i, grad[i], dv*x[i])
				}
			}
			if n := math.Abs(dv) * vecmath.Norm2(x[:d]); c.lipschitz && n > l.Lipschitz()+1e-12 {
				t.Errorf("%s: |Scalar′|·‖feat(x)‖ = %v at θ=%v x=%v exceeds Lipschitz %v",
					l.Name(), n, theta, x, l.Lipschitz())
			}
		}
	}
}

func TestSquaredValidation(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	if _, err := NewSquared("s", ball, []float64{1}, 0, 1); err == nil {
		t.Error("featBound=0 accepted")
	}
	if _, err := NewSquared("s", ball, nil, 1, 1); err == nil {
		t.Error("nil target accepted")
	}
}

func TestLogisticValidation(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	if _, err := NewLogistic("l", ball, 0, 0, 1); err == nil {
		t.Error("temp=0 accepted")
	}
	if _, err := NewLogistic("l", ball, 0, 1, 0); err == nil {
		t.Error("featBound=0 accepted")
	}
}

func TestHingeHuberValidation(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	if _, err := NewSmoothedHinge("h", ball, 0, 1); err == nil {
		t.Error("width=0 accepted")
	}
	if _, err := NewHuber("h", ball, 0, 1); err == nil {
		t.Error("delta=0 accepted")
	}
}

func TestLinearFormValidation(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	if _, err := NewLinearForm("f", ball, []float64{2, 0, 0}, 1); err == nil {
		t.Error("‖v‖>1 accepted")
	}
	if _, err := NewLinearForm("f", ball, []float64{1, 0, 0}, 0); err == nil {
		t.Error("featBound=0 accepted")
	}
}

func TestLinearQueryBasics(t *testing.T) {
	if _, err := NewLinearQuery("q", nil); err == nil {
		t.Error("nil predicate accepted")
	}
	g := testGrid(t)
	lq, _ := NewLinearQuery("q", func(x []float64) float64 {
		if x[0] > 0 {
			return 1
		}
		return 0
	})
	h := histogram.Uniform(g)
	ans := lq.ExactMinimize(h)[0]
	// Fraction of grid points with positive first coordinate = 1/3 (levels
	// {-1,0,1} scaled).
	if math.Abs(ans-1.0/3) > 1e-9 {
		t.Errorf("linear query answer = %v, want 1/3", ans)
	}
	if lq.StrongConvexity() != 1 {
		t.Error("linear query should be 1-strongly convex")
	}
	if got := lq.Predicate(g.Point(0)); got != 0 && got != 1 {
		t.Errorf("Predicate = %v", got)
	}
}

func TestRegularized(t *testing.T) {
	ball, _ := NewL2Ball(2, 1)
	sq, _ := NewSquared("sq", ball, []float64{0, 0, 1}, 1, 1)
	rg, err := NewRegularized(sq, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if rg.StrongConvexity() != 0.7 {
		t.Errorf("sigma = %v", rg.StrongConvexity())
	}
	if rg.sigma != 0.7 || rg.Inner() != Loss(sq) {
		t.Error("accessors wrong")
	}
	// Value difference is exactly the ridge term.
	theta := []float64{0.3, -0.4}
	x := []float64{0.1, 0.2, 0.5}
	want := sq.Value(theta, x) + 0.35*(0.09+0.16)
	if got := rg.Value(theta, x); math.Abs(got-want) > 1e-12 {
		t.Errorf("Regularized.Value = %v, want %v", got, want)
	}
	// Lipschitz grows by σ·diam.
	if got := rg.Lipschitz(); math.Abs(got-(1+0.7*2)) > 1e-12 {
		t.Errorf("Lipschitz = %v", got)
	}
	if _, err := NewRegularized(sq, -1); err == nil {
		t.Error("negative sigma accepted")
	}
}

func TestLinearFormExactMinimize(t *testing.T) {
	g := testGrid(t)
	ball, _ := NewL2Ball(2, 1)
	lf, _ := NewLinearForm("lf", ball, []float64{1, 0, 0}, math.Sqrt2)
	h := histogram.Uniform(g)
	theta := lf.ExactMinimize(h)
	if theta == nil {
		t.Fatal("nil minimizer on L2 ball")
	}
	// Verify optimality against many random feasible points.
	src := sample.New(6)
	val := EvalOn(nil, lf, theta, h)
	for i := 0; i < 300; i++ {
		probe := randomTheta(src, ball)
		if pv := EvalOn(nil, lf, probe, h); pv < val-1e-9 {
			t.Fatalf("found better point: %v (%v < %v)", probe, pv, val)
		}
	}
}

func TestPopulationValueAndGrad(t *testing.T) {
	g := testGrid(t)
	ball, _ := NewL2Ball(2, 1)
	sq, _ := NewSquared("sq", ball, []float64{0, 0, 1}, 1, 1)
	h := histogram.Uniform(g)
	theta := []float64{0.1, 0.2}
	// EvalOn equals the weighted sum by definition.
	var want float64
	for i := 0; i < g.Size(); i++ {
		want += h.P[i] * sq.Value(theta, g.Point(i))
	}
	if got := EvalOn(nil, sq, theta, h); math.Abs(got-want) > 1e-12 {
		t.Errorf("EvalOn = %v, want %v", got, want)
	}
	// Sweep.Grad matches finite differences of EvalOn.
	grad := make([]float64, len(theta))
	NewSweep(nil, sq, h).Grad(grad, theta)
	const step = 1e-6
	for i := range theta {
		tp := vecmath.Copy(theta)
		tm := vecmath.Copy(theta)
		tp[i] += step
		tm[i] -= step
		fd := (EvalOn(nil, sq, tp, h) - EvalOn(nil, sq, tm, h)) / (2 * step)
		if math.Abs(fd-grad[i]) > 1e-5 {
			t.Errorf("Sweep.Grad[%d] = %v, fd %v", i, grad[i], fd)
		}
	}
}
