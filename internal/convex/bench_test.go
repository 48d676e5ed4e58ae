package convex

import (
	"fmt"
	"testing"

	"repro/internal/histogram"
	"repro/internal/universe"
	"repro/internal/xeval"
)

// bench2p16 is the acceptance-criterion workload: a logistic CM query over
// a |X| = 2^16 labeled universe (5 feature coordinates on an 8-level grid
// × 2 labels = 8^5·2 = 65536 records).
func bench2p16(b *testing.B) (*universe.LabeledGrid, Loss, *histogram.Histogram, []float64) {
	b.Helper()
	g, err := universe.NewLabeledGrid(5, 8, 1.0, 2, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	if g.Size() != 1<<16 {
		b.Fatalf("|X| = %d, want 2^16", g.Size())
	}
	l, err := Build(g, Spec{Kind: "logistic"})
	if err != nil {
		b.Fatal(err)
	}
	h := histogram.Uniform(g)
	theta := make([]float64, l.Domain().Dim())
	for i := range theta {
		theta[i] = 0.1 * float64(i+1)
	}
	return g, l, h, theta
}

// BenchmarkGradOn2p16Logistic measures the population-gradient hot path —
// one Sweep.Grad, the per-step cost of the noisygd oracle — serial vs
// parallel. The acceptance criterion for the engine is ≥3× at 8 workers.
// The name predates the Sweep object; it is kept so the committed micro
// baseline keeps gating it.
func BenchmarkGradOn2p16Logistic(b *testing.B) {
	_, l, h, theta := bench2p16(b)
	grad := make([]float64, l.Domain().Dim())
	for _, workers := range []int{1, 2, 4, 8, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=numcpu"
		}
		sw := NewSweep(xeval.New(workers), l, h)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sw.Grad(grad, theta)
			}
		})
	}
}

// BenchmarkEvalOn2p16Logistic measures the population-loss path.
func BenchmarkEvalOn2p16Logistic(b *testing.B) {
	_, l, h, theta := bench2p16(b)
	for _, workers := range []int{1, 8} {
		e := xeval.New(workers)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EvalOn(e, l, theta, h)
			}
		})
	}
}

// BenchmarkValueGrad2p16Logistic measures the fused value+gradient sweep
// each solver iterate runs, one Sweep.ValueGrad; compare it with the
// EvalOn and GradOn benchmarks above summed, the two sweeps it replaces.
func BenchmarkValueGrad2p16Logistic(b *testing.B) {
	_, l, h, theta := bench2p16(b)
	grad := make([]float64, l.Domain().Dim())
	for _, workers := range []int{1, 8} {
		sw := NewSweep(xeval.New(workers), l, h)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sw.ValueGrad(grad, theta)
			}
		})
	}
}

// BenchmarkDirGradOn2p16Logistic measures the Claim-3.5 certificate
// kernel u_t(x) = ⟨dir, ∇ℓ_x(θ)⟩ over the full universe.
func BenchmarkDirGradOn2p16Logistic(b *testing.B) {
	g, l, _, theta := bench2p16(b)
	dir := make([]float64, l.Domain().Dim())
	for i := range dir {
		dir[i] = 0.05 * float64(i+1)
	}
	out := make([]float64, g.Size())
	for _, workers := range []int{1, 8} {
		e := xeval.New(workers)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DirGradOn(e, l, out, dir, theta, g)
			}
		})
	}
}
