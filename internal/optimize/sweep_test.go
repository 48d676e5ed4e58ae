package optimize

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/convex"
	"repro/internal/histogram"
	"repro/internal/universe"
	"repro/internal/vecmath"
	"repro/internal/xeval"
)

// twoSweepMinimize is Minimize as it was before the fused sweep: every
// iteration runs a gradient sweep at θ_t and then EvalOn at θ_{t+1}, two
// universe sweeps per iterate. The one-sweep solver must return its bits
// exactly. Its gradient sweep is Sweep.Grad, which convex's tests pin to
// the one-shot gradient sweep's bits.
func twoSweepMinimize(l convex.Loss, h *histogram.Histogram, opts Options) Result {
	opts = opts.withDefaults()
	if es, ok := l.(convex.ExactSolvable); ok {
		if theta := es.ExactMinimize(h); theta != nil {
			return Result{Theta: theta, Value: convex.EvalOn(opts.Engine, l, theta, h), Converged: true}
		}
	}
	dom := l.Domain()
	theta := dom.Center()
	lip := l.Lipschitz()
	if lip <= 0 {
		lip = 1
	}
	sigma := l.StrongConvexity()
	diam := dom.Diameter()

	sw := convex.NewSweep(opts.Engine, l, h)
	grad := make([]float64, dom.Dim())
	best := vecmath.Copy(theta)
	bestVal := convex.EvalOn(opts.Engine, l, theta, h)
	avg := vecmath.Copy(theta)
	var avgCount float64 = 1
	converged := false
	iters := 0
	for t := 1; t <= opts.MaxIters; t++ {
		iters = t
		sw.Grad(grad, theta)
		var step float64
		if sigma > 0 {
			step = 1 / (sigma * float64(t))
		} else {
			step = diam / (lip * math.Sqrt(float64(t)))
		}
		next := dom.Project(vecmath.AddScaled(vecmath.Copy(theta), -step, grad))
		moved := vecmath.Dist2(next, theta)
		theta = next
		avgCount++
		for i := range avg {
			avg[i] += (theta[i] - avg[i]) / avgCount
		}
		if v := convex.EvalOn(opts.Engine, l, theta, h); v < bestVal {
			bestVal = v
			copy(best, theta)
		}
		if moved < opts.Tol {
			converged = true
			break
		}
	}
	avgProj := dom.Project(avg)
	if v := convex.EvalOn(opts.Engine, l, avgProj, h); v < bestVal {
		bestVal = v
		best = avgProj
	}
	return Result{Theta: best, Value: bestVal, Iters: iters, Converged: converged}
}

// sweepUniverse spans three xeval chunks.
func sweepUniverse(t testing.TB) *universe.LabeledGrid {
	t.Helper()
	// 3 features × 14 levels + 2 labels: |X| = 5488.
	g, err := universe.NewLabeledGrid(3, 14, 1.0, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mixedHistogram puts a dense chunk (non-uniform, with some exact zeros),
// a sparse chunk (nnz < ChunkSize/4) and an all-zero chunk side by side,
// so the sweeps' one kernel path runs over three support shapes.
func mixedHistogram(g universe.Universe) *histogram.Histogram {
	p := make([]float64, g.Size())
	var sum float64
	for i := range p {
		switch {
		case i < xeval.ChunkSize && i%9 != 0:
			p[i] = 1 / float64(1+i%17)
		case i >= xeval.ChunkSize && i < 2*xeval.ChunkSize && i%97 == 0:
			p[i] = 0.3
		}
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return &histogram.Histogram{U: g, P: p}
}

// solverParams holds parameters for the registry kinds whose defaults do
// not fit sweepUniverse's 4-coordinate records.
var solverParams = map[string]string{
	"linear":    `{"v":[0.5,0.5,0,0.5]}`,
	"halfspace": `{"w":[1,-1,0.5,0],"threshold":0.1}`,
	"marginal":  `{"coords":[0,1],"signs":[1,-1]}`,
	"parity":    `{"coords":[0,2]}`,
	"positive":  `{"coord":1}`,
}

// solverLosses returns every registry kind built over g, plus a hideExact
// wrapper of each closed-form kind, so those kinds run the iterative loop
// too.
func solverLosses(t *testing.T, g universe.Universe) []convex.Loss {
	t.Helper()
	var out []convex.Loss
	for _, kind := range convex.Kinds() {
		sp := convex.Spec{Kind: kind}
		if p, ok := solverParams[kind]; ok {
			sp.Params = json.RawMessage(p)
		}
		l, err := convex.Build(g, sp)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out = append(out, l)
		if _, ok := l.(convex.ExactSolvable); ok {
			out = append(out, hideExact{l})
		}
	}
	return out
}

// sameResult reports whether two results carry the same bits.
func sameResult(a, b Result) bool {
	if len(a.Theta) != len(b.Theta) || math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
		a.Iters != b.Iters || a.Converged != b.Converged {
		return false
	}
	for i := range a.Theta {
		if math.Float64bits(a.Theta[i]) != math.Float64bits(b.Theta[i]) {
			return false
		}
	}
	return true
}

// exits are the two ways out of a solver loop: the Tol break, and running
// out of iterations under a Tol that a moving step cannot undercut.
var exits = []struct {
	name      string
	opts      Options
	converged bool
}{
	{"tol", Options{MaxIters: 3000, Tol: 1e-4}, true},
	{"maxiters", Options{MaxIters: 5, Tol: 1e-300}, false},
}

// TestOneSweepSolversMatchTwoSweep pins Minimize to the two-sweep loop
// it replaced: same Theta, Value, Iters and Converged bits for every
// registry kind, with and without the closed-form shortcut, through both
// loop exits. The exits are checked as covered across the losses
// rather than per loss.
func TestOneSweepSolversMatchTwoSweep(t *testing.T) {
	g := sweepUniverse(t)
	h := mixedHistogram(g)
	e := xeval.New(4)
	seen := map[string]bool{}
	for _, l := range solverLosses(t, g) {
		for _, ex := range exits {
			opts := ex.opts
			opts.Engine = e
			name := fmt.Sprintf("%T/%s/%s", l, l.Name(), ex.name)
			want := twoSweepMinimize(l, h, opts)
			if want.Iters > 0 && want.Converged == ex.converged {
				seen[ex.name] = true
			}
			got, err := Minimize(l, h, opts)
			if err != nil {
				t.Fatalf("%s: Minimize: %v", name, err)
			}
			if !sameResult(got, want) {
				t.Errorf("%s: Minimize = %+v, two-sweep loop %+v", name, got, want)
			}
		}
	}
	for _, ex := range exits {
		if !seen[ex.name] {
			t.Errorf("no loss left Minimize through the %s exit", ex.name)
		}
	}
}

// TestSolverSweepCount counts universe sweeps through the xeval observer:
// Minimize on a GLM costs exactly Iters+2 (start point, one per iterate,
// averaged iterate), so a second sweep per iterate fails here. It
// installs the process-wide observer, so it must not run in parallel with
// other tests.
func TestSolverSweepCount(t *testing.T) {
	g := sweepUniverse(t)
	h := mixedHistogram(g)
	l, err := convex.Build(g, convex.Spec{Kind: "logistic"})
	if err != nil {
		t.Fatal(err)
	}
	var sweeps int
	xeval.SetObserver(func(chunks, workers int, seconds float64) { sweeps++ })
	defer xeval.SetObserver(nil)
	for _, ex := range exits {
		for _, e := range []*xeval.Engine{nil, xeval.New(4)} {
			opts := ex.opts
			opts.Engine = e
			sweeps = 0
			res, err := Minimize(l, h, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged != ex.converged {
				t.Fatalf("%s: Minimize converged=%v, want the %s exit", ex.name, res.Converged, ex.name)
			}
			if sweeps != res.Iters+2 {
				t.Errorf("%s/workers=%d: Minimize swept %d times in %d iters, want %d",
					ex.name, e.Workers(), sweeps, res.Iters, res.Iters+2)
			}
		}
	}
}
