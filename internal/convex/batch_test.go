package convex

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/histogram"
	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/xeval"
)

// registrySpecs returns one buildable spec per registered loss kind over a
// dim-3 labeled universe, so the engine equality tests below sweep the
// whole registry. The test fails if a kind is added without a spec here.
func registrySpecs(t *testing.T) []Spec {
	t.Helper()
	specs := map[string]Spec{
		"squared":   {Kind: "squared"},
		"logistic":  {Kind: "logistic", Params: json.RawMessage(`{"margin":0.1,"temp":0.4}`)},
		"hinge":     {Kind: "hinge", Params: json.RawMessage(`{"width":0.8}`)},
		"huber":     {Kind: "huber", Params: json.RawMessage(`{"delta":0.3}`)},
		"pinball":   {Kind: "pinball", Params: json.RawMessage(`{"tau":0.7,"smooth":0.05}`)},
		"linear":    {Kind: "linear", Params: json.RawMessage(`{"v":[0.5,0.5,0,0.5]}`)},
		"halfspace": {Kind: "halfspace", Params: json.RawMessage(`{"w":[1,-1,0.5,0],"threshold":0.1}`)},
		"marginal":  {Kind: "marginal", Params: json.RawMessage(`{"coords":[0,1],"signs":[1,-1]}`)},
		"parity":    {Kind: "parity", Params: json.RawMessage(`{"coords":[0,2]}`)},
		"positive":  {Kind: "positive", Params: json.RawMessage(`{"coord":1}`)},
	}
	var out []Spec
	for _, kind := range Kinds() {
		sp, ok := specs[kind]
		if !ok {
			t.Fatalf("registered kind %q has no spec in the engine equality tests; add one", kind)
		}
		out = append(out, sp)
	}
	return out
}

// testUniverse is large enough to span several xeval chunks so the
// parallel path genuinely exercises chunk scheduling and reduction.
func testUniverse(t testing.TB) *universe.LabeledGrid {
	t.Helper()
	// 3 features × 14 levels + 2 labels: |X| = 14³·2 = 5488 (> 2 chunks).
	g, err := universe.NewLabeledGrid(3, 14, 1.0, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// skewedHistogram builds a non-uniform histogram with some exact zeros, so
// the kernels' per-cell zero skips run.
func skewedHistogram(g universe.Universe) *histogram.Histogram {
	p := make([]float64, g.Size())
	var sum float64
	for i := range p {
		switch {
		case i%7 == 0:
			p[i] = 0 // exercise the kernels' per-cell zero skip
		default:
			p[i] = 1 / float64(1+i%13)
			sum += p[i]
		}
	}
	for i := range p {
		p[i] /= sum
	}
	return &histogram.Histogram{U: g, P: p}
}

// naiveValueOn is the pre-engine reference implementation: a straight
// sequential accumulation with per-element Value calls.
func naiveValueOn(l Loss, theta []float64, h *histogram.Histogram) float64 {
	var s float64
	for i, p := range h.P {
		if p == 0 {
			continue
		}
		s += p * l.Value(theta, h.U.Point(i))
	}
	return s
}

// refGradOn is the population gradient as the one-shot GradOn sweep
// computed it before the Sweep object replaced it: a d-slot vector
// reduction over the gradient kernel, skipping all-zero chunks. It pins
// the Sweep's gradient bits to that sweep's.
func refGradOn(e *xeval.Engine, l Loss, theta []float64, h *histogram.Histogram) []float64 {
	d := l.Domain().Dim()
	return e.NewVecSum(h.U.Size(), d, func(lo, hi int, out []float64) {
		w := h.P[lo:hi]
		for _, wi := range w {
			if wi != 0 {
				l.GradBatch(out, theta, w, h.U, lo, hi)
				return
			}
		}
	}).Run(make([]float64, d))
}

// refEvalOn is the population loss as EvalOn computed it when each chunk
// took a branch on the histogram's support: an all-zero chunk gives 0, a
// chunk with nnz < n/4 sums w·Value over its nonzero cells, and any other
// chunk runs the value kernel and sums w·value through weightedValue. It
// pins EvalOn's and the Sweep's value bits to those branches'.
func refEvalOn(e *xeval.Engine, l Loss, theta []float64, h *histogram.Histogram) float64 {
	return e.Sum(h.U.Size(), func(lo, hi int) float64 {
		w := h.P[lo:hi]
		nnz := 0
		for _, wi := range w {
			if wi != 0 {
				nnz++
			}
		}
		switch {
		case nnz == 0:
			return 0
		case nnz < (hi-lo)/4:
			var s float64
			for i, wi := range w {
				if wi != 0 {
					s += wi * l.Value(theta, h.U.Point(lo+i))
				}
			}
			return s
		}
		vals := make([]float64, hi-lo)
		l.EvalBatch(vals, theta, h.U, lo, hi)
		return weightedValue(vals, w)
	})
}

// sweepGrad returns the population gradient from a fresh Sweep's Grad.
func sweepGrad(e *xeval.Engine, l Loss, theta []float64, h *histogram.Histogram) []float64 {
	grad := make([]float64, l.Domain().Dim())
	NewSweep(e, l, h).Grad(grad, theta)
	return grad
}

// naiveGradOn is the pre-engine reference population gradient.
func naiveGradOn(l Loss, theta []float64, h *histogram.Histogram) []float64 {
	d := l.Domain().Dim()
	grad := make([]float64, d)
	g := make([]float64, d)
	for i, p := range h.P {
		if p == 0 {
			continue
		}
		l.Grad(g, theta, h.U.Point(i))
		for j := range grad {
			grad[j] += p * g[j]
		}
	}
	return grad
}

// naiveDirGrad is the pre-engine reference certificate vector.
func naiveDirGrad(l Loss, dir, theta []float64, u universe.Universe) []float64 {
	d := l.Domain().Dim()
	out := make([]float64, u.Size())
	g := make([]float64, d)
	for i := 0; i < u.Size(); i++ {
		l.Grad(g, theta, u.Point(i))
		var s float64
		for j := 0; j < d; j++ {
			s += dir[j] * g[j]
		}
		out[i] = s
	}
	return out
}

// probe returns deterministic pseudo-random interior domain points.
func probe(src *sample.Source, l Loss) []float64 {
	d := l.Domain().Dim()
	p := make([]float64, d)
	for i := range p {
		p[i] = 0.8*src.Float64() - 0.4
	}
	return l.Domain().Project(p)
}

// TestEngineMatchesSequentialAllKinds is the acceptance equality test:
// for every registered loss kind, the batched parallel expectation paths
// (8 workers) match the naive sequential reference within 1e-12, and are
// bit-identical across worker counts.
func TestEngineMatchesSequentialAllKinds(t *testing.T) {
	g := testUniverse(t)
	h := skewedHistogram(g)
	src := sample.New(7)
	par := xeval.New(8)
	ser := xeval.New(1)

	for _, sp := range registrySpecs(t) {
		l, err := Build(g, sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Kind, err)
		}
		// Wrap two kinds in the decorators so their delegating kernels are
		// covered by the same sweep.
		losses := []Loss{l}
		if reg, err := NewRegularized(l, 0.25); err == nil {
			losses = append(losses, reg)
		}
		if sc, err := NewScaled(l, 0.5); err == nil {
			losses = append(losses, sc)
		}
		for _, l := range losses {
			theta := probe(src, l)
			thetaHat := probe(src, l)
			dir := make([]float64, len(theta))
			for i := range dir {
				dir[i] = theta[i] - thetaHat[i]
			}

			wantV := naiveValueOn(l, theta, h)
			gotV := EvalOn(par, l, theta, h)
			if math.Abs(gotV-wantV) > 1e-12 {
				t.Errorf("%s: EvalOn parallel = %v, sequential %v (Δ=%g)", l.Name(), gotV, wantV, gotV-wantV)
			}
			if serV := EvalOn(ser, l, theta, h); serV != gotV {
				t.Errorf("%s: EvalOn differs across worker counts: %v vs %v", l.Name(), serV, gotV)
			}

			wantG := naiveGradOn(l, theta, h)
			gotG := sweepGrad(par, l, theta, h)
			serG := sweepGrad(ser, l, theta, h)
			for j := range wantG {
				if math.Abs(gotG[j]-wantG[j]) > 1e-12 {
					t.Errorf("%s: Sweep.Grad[%d] parallel = %v, sequential %v", l.Name(), j, gotG[j], wantG[j])
				}
				if gotG[j] != serG[j] {
					t.Errorf("%s: Sweep.Grad[%d] differs across worker counts", l.Name(), j)
				}
			}

			wantU := naiveDirGrad(l, dir, thetaHat, g)
			gotU := make([]float64, g.Size())
			DirGradOn(par, l, gotU, dir, thetaHat, g)
			for i := range wantU {
				if math.Abs(gotU[i]-wantU[i]) > 1e-12 {
					t.Errorf("%s: DirGradOn[%d] = %v, want %v", l.Name(), i, gotU[i], wantU[i])
					break
				}
			}
		}
	}
}

// TestEngineOnHypercube repeats the equality check on the §4.3 hypercube
// universe at |X| = 2^14, for a loss with a non-trivial full-record target.
func TestEngineOnHypercube(t *testing.T) {
	if testing.Short() {
		t.Skip("large universe")
	}
	hc, err := universe.NewHypercube(14)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := NewL2Ball(hc.Dim(), 1)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]float64, hc.Dim())
	target[0], target[3] = 0.8, -0.6
	l, err := NewSquared("sq-hc", dom, target, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(11)
	h := skewedHistogram(hc)
	theta := probe(src, l)
	want := naiveValueOn(l, theta, h)
	if got := EvalOn(xeval.New(8), l, theta, h); math.Abs(got-want) > 1e-12 {
		t.Errorf("EvalOn = %v, want %v", got, want)
	}
	wantG := naiveGradOn(l, theta, h)
	gotG := sweepGrad(xeval.New(8), l, theta, h)
	for j := range wantG {
		if math.Abs(gotG[j]-wantG[j]) > 1e-12 {
			t.Errorf("Sweep.Grad[%d] = %v, want %v", j, gotG[j], wantG[j])
		}
	}
}

// TestKernelsMatchValueGrad pins every registry kind's range kernels, and
// both decorators', to the per-element Value and Grad: EvalBatch must equal
// Value bit for bit, which is what lets every chunk of EvalOn and the Sweep
// take the kernel whatever its support. The gradient kernels agree with
// Grad within 1e-12 (they reassociate: GradBatch forms (w·dv)·x_j and
// DirGradBatch dv·⟨dir, x⟩), and the fused kernel reproduces EvalBatch and
// GradBatch bit for bit.
func TestKernelsMatchValueGrad(t *testing.T) {
	g := testUniverse(t)
	src := sample.New(3)
	for _, sp := range registrySpecs(t) {
		base, err := Build(g, sp)
		if err != nil {
			t.Fatal(err)
		}
		losses := []Loss{base}
		if reg, err := NewRegularized(base, 0.25); err == nil {
			losses = append(losses, reg)
		}
		if sc, err := NewScaled(base, 0.5); err == nil {
			losses = append(losses, sc)
		}
		for _, l := range losses {
			kernelsMatchValueGrad(t, src, g, l)
		}
	}
}

// kernelsMatchValueGrad checks l's four kernels over one range of g
// against per-element Value and Grad calls.
func kernelsMatchValueGrad(t *testing.T, src *sample.Source, g universe.Universe, l Loss) {
	t.Helper()
	name := l.Name()
	theta := probe(src, l)
	dir := probe(src, l)
	lo, hi := 5, 1200
	n := hi - lo

	fastV := make([]float64, n)
	l.EvalBatch(fastV, theta, g, lo, hi)
	buf := make([]float64, g.Dim())
	for i := lo; i < hi; i++ {
		want := l.Value(theta, g.PointInto(i, buf))
		if math.Float64bits(fastV[i-lo]) != math.Float64bits(want) {
			t.Errorf("%s: EvalBatch[%d] = %v, Value = %v", name, i, fastV[i-lo], want)
			break
		}
	}

	w := make([]float64, n)
	for i := range w {
		w[i] = src.Float64()
		if i%5 == 0 {
			w[i] = 0
		}
	}
	d := l.Domain().Dim()
	fastG := make([]float64, d)
	l.GradBatch(fastG, theta, w, g, lo, hi)
	slowG := make([]float64, d)
	gbuf := make([]float64, d)
	for i := lo; i < hi; i++ {
		if w[i-lo] == 0 {
			continue
		}
		l.Grad(gbuf, theta, g.PointInto(i, buf))
		for j := 0; j < d; j++ {
			slowG[j] += w[i-lo] * gbuf[j]
		}
	}
	for j := 0; j < d; j++ {
		if math.Abs(fastG[j]-slowG[j]) > 1e-12 {
			t.Errorf("%s: GradBatch[%d] = %v, Grad = %v", name, j, fastG[j], slowG[j])
		}
	}

	// The fused kernel must reproduce EvalBatch's values at every nonzero
	// weight and GradBatch's sum, bit for bit.
	fusedV := make([]float64, n)
	fusedG := make([]float64, d)
	l.ValueGradBatch(fusedV, fusedG, theta, w, g, lo, hi)
	for i, wi := range w {
		if wi != 0 && math.Float64bits(fusedV[i]) != math.Float64bits(fastV[i]) {
			t.Errorf("%s: ValueGradBatch value[%d] = %v, EvalBatch = %v", name, lo+i, fusedV[i], fastV[i])
			break
		}
	}
	sameBits(t, name+" ValueGradBatch vs GradBatch", fusedG, fastG)

	fastU := make([]float64, n)
	l.DirGradBatch(fastU, dir, theta, g, lo, hi)
	for i := lo; i < hi; i++ {
		l.Grad(gbuf, theta, g.PointInto(i, buf))
		var want float64
		for j := 0; j < d; j++ {
			want += dir[j] * gbuf[j]
		}
		if math.Abs(fastU[i-lo]-want) > 1e-12 {
			t.Errorf("%s: DirGradBatch[%d] = %v, Grad = %v", name, i, fastU[i-lo], want)
			break
		}
	}
}

// TestSweepBitIdentical pins the Sweep object and EvalOn to the sweeps
// they replace in the solvers and the oracles: EvalOn and ValueGrad's
// value must carry refEvalOn's bits, and both ValueGrad's gradient and
// Grad's must carry the one-shot gradient sweep's (refGradOn), with no
// tolerance. It covers every registry kind and both decorators on 1, 2
// and 8 workers, over three histograms: one chunk of each support shape
// (dense, sparse, all zero), dense everywhere, and sparse everywhere. One Sweep serves a sequence of
// iterates with Grad and ValueGrad interleaved, so partials a previous
// sweep left behind would show here.
func TestSweepBitIdentical(t *testing.T) {
	g := testUniverse(t)
	if xeval.Chunks(g.Size()) != 3 {
		t.Fatalf("|X| = %d spans %d chunks, want 3", g.Size(), xeval.Chunks(g.Size()))
	}
	hists := supportShapes(g)
	src := sample.New(17)
	for _, sp := range registrySpecs(t) {
		l, err := Build(g, sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Kind, err)
		}
		losses := []Loss{l}
		if reg, err := NewRegularized(l, 0.25); err == nil {
			losses = append(losses, reg)
		}
		if sc, err := NewScaled(l, 0.5); err == nil {
			losses = append(losses, sc)
		}
		for _, l := range losses {
			thetas := [][]float64{probe(src, l), probe(src, l), probe(src, l)}
			for hname, h := range hists {
				for _, workers := range []int{1, 2, 8} {
					e := xeval.New(workers)
					sw := NewSweep(e, l, h)
					name := fmt.Sprintf("%T %s %s workers=%d", l, l.Name(), hname, workers)
					for k, theta := range thetas {
						wantV := refEvalOn(e, l, theta, h)
						if v := EvalOn(e, l, theta, h); math.Float64bits(v) != math.Float64bits(wantV) {
							t.Errorf("%s iterate %d: EvalOn = %v, refEvalOn = %v", name, k, v, wantV)
						}
						wantG := refGradOn(e, l, theta, h)
						gotG := make([]float64, len(wantG))
						if k%2 == 1 {
							sw.Grad(gotG, theta)
							sameBits(t, name+" Grad", gotG, wantG)
						}
						gotV := sw.ValueGrad(gotG, theta)
						if math.Float64bits(gotV) != math.Float64bits(wantV) {
							t.Errorf("%s iterate %d: ValueGrad value = %v, refEvalOn = %v", name, k, gotV, wantV)
						}
						sameBits(t, name+" ValueGrad", gotG, wantG)
					}
				}
			}
		}
	}
}

// FuzzSweepMatchesReference fuzzes the histogram's support: the private
// histogram's zero pattern is data, so EvalOn, Sweep.ValueGrad and
// Sweep.Grad must carry refEvalOn's and refGradOn's bits for every
// support over the 3-chunk test universe. Byte i of the input is cell i's
// weight (zero or not; cells past the input are zero), and the three
// floats give θ, projected onto each loss's domain. The seed corpus is
// supportShapes, the three supports TestSweepBitIdentical sweeps.
func FuzzSweepMatchesReference(f *testing.F) {
	g := testUniverse(f)
	build := func(sp Spec) Loss {
		l, err := Build(g, sp)
		if err != nil {
			f.Fatalf("%s: %v", sp.Kind, err)
		}
		return l
	}
	logistic := build(Spec{Kind: "logistic"})
	halfspace := build(Spec{Kind: "halfspace", Params: json.RawMessage(`{"w":[1,-1,0.5,0],"threshold":0.1}`)})
	reg, err := NewRegularized(logistic, 0.25)
	if err != nil {
		f.Fatal(err)
	}
	sc, err := NewScaled(halfspace, 0.5)
	if err != nil {
		f.Fatal(err)
	}
	losses := []Loss{logistic, build(Spec{Kind: "squared"}), halfspace, reg, sc}

	for _, h := range supportShapes(g) {
		cells := make([]byte, len(h.P))
		for i, w := range h.P {
			cells[i] = byte(math.Ceil(255 * w)) // weights lie in [0, 1]
		}
		f.Add(cells, 0.3, -0.2, 0.1)
	}
	var e *xeval.Engine
	f.Fuzz(func(t *testing.T, cells []byte, t0, t1, t2 float64) {
		for _, v := range []float64{t0, t1, t2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		p := make([]float64, g.Size())
		for i := range min(len(cells), len(p)) {
			p[i] = float64(cells[i]) / 255
		}
		h := &histogram.Histogram{U: g, P: p}
		for _, l := range losses {
			theta := make([]float64, l.Domain().Dim())
			for j := range theta {
				theta[j] = []float64{t0, t1, t2}[j%3]
			}
			theta = l.Domain().Project(theta)
			wantV := refEvalOn(e, l, theta, h)
			wantG := refGradOn(e, l, theta, h)
			if v := EvalOn(e, l, theta, h); math.Float64bits(v) != math.Float64bits(wantV) {
				t.Errorf("%s: EvalOn = %v, refEvalOn = %v", l.Name(), v, wantV)
			}
			sw := NewSweep(e, l, h)
			gotG := make([]float64, len(wantG))
			if v := sw.ValueGrad(gotG, theta); math.Float64bits(v) != math.Float64bits(wantV) {
				t.Errorf("%s: ValueGrad value = %v, refEvalOn = %v", l.Name(), v, wantV)
			}
			sameBits(t, l.Name()+" ValueGrad", gotG, wantG)
			sw.Grad(gotG, theta)
			sameBits(t, l.Name()+" Grad", gotG, wantG)
		}
	})
}

// supportShapes returns three histograms over the 3-chunk test universe
// g, one per support shape: one chunk of each shape (dense, sparse, all
// zero), dense everywhere, and sparse everywhere.
func supportShapes(g universe.Universe) map[string]*histogram.Histogram {
	mixed := make([]float64, g.Size())
	for i := range mixed {
		switch c := i / xeval.ChunkSize; {
		case c == 0 && i%7 != 0: // dense, with some exact zeros
			mixed[i] = 1 / float64(1+i%13)
		case c == 1 && i%50 == 0: // sparse: 41 of 2048 cells
			mixed[i] = 0.5
		}
	}
	sparse := make([]float64, g.Size())
	for _, i := range []int{0, 7, 500, 2047, 2048, 2100, 4095, 4096, 4500, 5487} {
		sparse[i] = 0.1
	}
	return map[string]*histogram.Histogram{
		"mixed":  {U: g, P: mixed},
		"dense":  skewedHistogram(g),
		"sparse": {U: g, P: sparse},
	}
}

// sameBits reports every coordinate where got and want differ in any bit.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Errorf("%s: grad[%d] = %v, want %v", name, j, got[j], want[j])
		}
	}
}

// TestEvalOnConcurrentSameLoss drives one loss instance from many
// goroutines at once — the serving pattern (sessions share registry-built
// losses' universe) — so `go test -race` certifies engine + kernel safety.
func TestEvalOnConcurrentSameLoss(t *testing.T) {
	g := testUniverse(t)
	h := skewedHistogram(g)
	l, err := Build(g, Spec{Kind: "logistic"})
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(5)
	theta := probe(src, l)
	want := EvalOn(nil, l, theta, h)
	done := make(chan float64, 8)
	for k := 0; k < 8; k++ {
		go func() {
			e := xeval.New(4)
			var last float64
			for r := 0; r < 20; r++ {
				last = EvalOn(e, l, theta, h)
			}
			done <- last
		}()
	}
	for k := 0; k < 8; k++ {
		if got := <-done; got != want {
			t.Errorf("concurrent EvalOn = %v, want %v", got, want)
		}
	}
}

// TestEvalOnSparseHistogram covers an empirical-style support: a
// histogram on a handful of cells of a multi-chunk universe must produce
// the naive sequential population loss, for every worker count.
func TestEvalOnSparseHistogram(t *testing.T) {
	g := testUniverse(t)
	p := make([]float64, g.Size())
	// 12 support points scattered across chunks: every chunk is far below
	// the nnz < len/4 density threshold.
	idxs := []int{0, 7, 500, 2047, 2048, 2100, 4095, 4096, 4500, 5000, 5400, 5487}
	for _, i := range idxs {
		p[i] = 1 / float64(len(idxs))
	}
	h := &histogram.Histogram{U: g, P: p}
	l, err := Build(g, Spec{Kind: "huber"})
	if err != nil {
		t.Fatal(err)
	}
	theta := probe(sample.New(13), l)
	want := naiveValueOn(l, theta, h)
	for _, w := range []int{1, 8} {
		if got := EvalOn(xeval.New(w), l, theta, h); math.Abs(got-want) > 1e-12 {
			t.Errorf("workers=%d: sparse EvalOn = %v, want %v", w, got, want)
		}
	}
	if a, b := EvalOn(xeval.New(1), l, theta, h), EvalOn(xeval.New(8), l, theta, h); a != b {
		t.Errorf("sparse EvalOn differs across worker counts: %v vs %v", a, b)
	}
}
