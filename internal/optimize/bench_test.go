package optimize

import (
	"math"
	"testing"

	"repro/internal/convex"
	"repro/internal/histogram"
	"repro/internal/universe"
	"repro/internal/xeval"
)

// BenchmarkMinimizeMissLarge measures one public argmin solve shaped like
// the miss_large workload's: a logistic query over the 3,888-point
// labeled grid (4 features × 6 levels × 3 labels) under a non-uniform
// dense histogram, as an MW hypothesis is, with MaxIters 400.
func BenchmarkMinimizeMissLarge(b *testing.B) {
	g, err := universe.NewLabeledGrid(4, 6, 1.0, 3, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	benchMinimize(b, g, nil)
}

// BenchmarkMinimizeMissSmall measures the same solve shaped like the
// miss_small workload's: the 27-point labeled grid (2 features × 3
// levels × 3 labels) on a 2-worker engine, as serve runs it on a 2-CPU
// host. A sweep's kernel is about a microsecond here, so the per-iterate
// fixed cost (allocations, reduction setup) shows in ns/op and allocs/op.
func BenchmarkMinimizeMissSmall(b *testing.B) {
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	benchMinimize(b, g, xeval.New(2))
}

// benchMinimize times Minimize on a logistic query over g under a
// non-uniform dense histogram, with MaxIters 400, on e.
func benchMinimize(b *testing.B, g *universe.LabeledGrid, e *xeval.Engine) {
	l, err := convex.Build(g, convex.Spec{Kind: "logistic"})
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, g.Size())
	buf := make([]float64, g.Dim())
	label := g.Dim() - 1
	var z float64
	for i := range p {
		x := g.PointInto(i, buf)
		// Tilt the mass toward records whose label agrees with their
		// first two features, with a deterministic ripple.
		p[i] = math.Exp(x[0]*x[label]+0.5*x[1]*x[label]) * (1 + 0.3*math.Sin(float64(i)))
		z += p[i]
	}
	for i := range p {
		p[i] /= z
	}
	h := &histogram.Histogram{U: g, P: p}
	b.ReportAllocs()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		if res, err = Minimize(l, h, Options{MaxIters: 400, Engine: e}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Iters), "iters/op")
}
