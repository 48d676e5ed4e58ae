package core

import (
	"math"
	"testing"

	"repro/internal/convex"
	"repro/internal/erm"
	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/vecmath"
)

// linearQueryPool builds k typed linear queries (not wrapped in the Loss
// interface) for the HR10 path.
func linearQueryPool(t *testing.T, g *universe.LabeledGrid, k int, seed int64) []*convex.LinearQuery {
	t.Helper()
	src := sample.New(seed)
	out := make([]*convex.LinearQuery, 0, k)
	for i := 0; i < k; i++ {
		w := src.UnitVec(g.Dim())
		thresh := (src.Float64() - 0.5) * 0.5
		lq, err := convex.NewLinearQuery("lin", func(x []float64) float64 {
			var s float64
			for j := range w {
				s += w[j] * x[j]
			}
			if s >= thresh {
				return 1
			}
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, lq)
	}
	return out
}

func TestLinearPMWValidation(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 1000, 1)
	src := sample.New(1)
	bad := []LinearPMWConfig{
		{Eps: 0, Delta: 1e-6, Alpha: 0.1, K: 10},
		{Eps: 1, Delta: 0, Alpha: 0.1, K: 10},
		{Eps: 1, Delta: 1e-6, Alpha: 0, K: 10},
		{Eps: 1, Delta: 1e-6, Alpha: 2, K: 10},
		{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 0},
	}
	for i, cfg := range bad {
		if _, err := NewLinearPMW(cfg, data, src); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	good := LinearPMWConfig{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 10}
	if _, err := NewLinearPMW(good, data, src); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := NewLinearPMW(good, nil, src); err == nil {
		t.Error("nil data accepted")
	}
	if _, err := NewLinearPMW(good, data, nil); err == nil {
		t.Error("nil source accepted")
	}
}

// End-to-end HR10: every released answer is within α of the truth (in
// answer units) at sufficient n.
func TestLinearPMWEndToEnd(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 200000, 2)
	// TBudget ≥ K: each query triggers at most one update, so the server
	// cannot run out of tops; η is then small enough for steady progress.
	cfg := LinearPMWConfig{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 100, TBudget: 120}
	srv, err := NewLinearPMW(cfg, data, sample.New(3))
	if err != nil {
		t.Fatal(err)
	}
	pool := linearQueryPool(t, g, 100, 4)
	d := data.Histogram()
	var worst float64
	for i, q := range pool {
		ans, err := srv.Answer(q)
		if err != nil {
			t.Fatalf("halted after %d: %v", i, err)
		}
		truth := q.ExactMinimize(d)[0]
		if e := math.Abs(ans - truth); e > worst {
			worst = e
		}
	}
	if worst > cfg.Alpha {
		t.Errorf("worst answer error %v > α = %v", worst, cfg.Alpha)
	}
	if srv.Updates() > 120 {
		t.Errorf("updates %d exceed budget", srv.Updates())
	}
	if err := srv.state.Histogram().Validate(); err != nil {
		t.Fatal(err)
	}
}

// The CM generalization with the LaplaceLinear oracle must match the HR10
// specialization's behaviour on the same workload (comparable worst error).
func TestLinearPMWMatchesCMGeneralization(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 200000, 5)
	d := data.Histogram()
	k := 80
	pool := linearQueryPool(t, g, k, 6)

	hr, err := NewLinearPMW(LinearPMWConfig{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: k, TBudget: 100}, data, sample.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var hrWorst float64
	for _, q := range pool {
		ans, err := hr.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(ans - q.ExactMinimize(d)[0]); e > hrWorst {
			hrWorst = e
		}
	}

	// Matching excess-risk target: answer error a corresponds to excess
	// a²/2 for the quadratic embedding.
	cm, err := New(Config{
		Eps: 1, Delta: 1e-6, Alpha: 0.1 * 0.1 / 2, Beta: 0.05,
		K: k, S: 1, Oracle: erm.LaplaceLinear{}, TBudget: 100,
	}, data, sample.New(8))
	if err != nil {
		t.Fatal(err)
	}
	var cmWorst float64
	for _, q := range pool {
		theta, err := cm.Answer(q)
		if err == ErrHalted {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(theta[0] - q.ExactMinimize(d)[0]); e > cmWorst {
			cmWorst = e
		}
	}
	// Same order of magnitude: neither mechanism more than 4× worse.
	if hrWorst > 4*cmWorst+0.02 && cmWorst > 0 {
		t.Errorf("HR10 (%v) far worse than CM generalization (%v)", hrWorst, cmWorst)
	}
	if cmWorst > 4*hrWorst+0.02 && hrWorst > 0 {
		t.Errorf("CM generalization (%v) far worse than HR10 (%v)", cmWorst, hrWorst)
	}
}

func TestLinearPMWHalts(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 200000, 9)
	cfg := LinearPMWConfig{Eps: 1, Delta: 1e-6, Alpha: 0.01, K: 100, TBudget: 2}
	srv, err := NewLinearPMW(cfg, data, sample.New(10))
	if err != nil {
		t.Fatal(err)
	}
	pool := linearQueryPool(t, g, 100, 11)
	halted := false
	for _, q := range pool {
		if _, err := srv.Answer(q); err == ErrHalted {
			halted = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !halted {
		t.Skip("budget survived on this seed")
	}
	if _, err := srv.Answer(pool[0]); err != ErrHalted {
		t.Errorf("err = %v, want ErrHalted", err)
	}
}

func TestMWEMValidation(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 1000, 12)
	src := sample.New(12)
	pool := linearQueryPool(t, g, 3, 13)
	if _, err := MWEM(MWEMConfig{Eps: 1, Rounds: 0}, data, src, pool); err == nil {
		t.Error("rounds=0 accepted")
	}
	if _, err := MWEM(MWEMConfig{Eps: 0, Rounds: 5}, data, src, pool); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := MWEM(MWEMConfig{Eps: 1, Rounds: 5}, data, src, nil); err == nil {
		t.Error("no queries accepted")
	}
	if _, err := MWEM(MWEMConfig{Eps: 1, Rounds: 5}, nil, src, pool); err == nil {
		t.Error("nil data accepted")
	}
}

// Classic MWEM end-to-end under PURE differential privacy (δ = 0).
func TestMWEMPureDPEndToEnd(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 100000, 14)
	pool := linearQueryPool(t, g, 40, 15)
	res, err := MWEM(MWEMConfig{Eps: 1, Delta: 0, Rounds: 10}, data, sample.New(16), pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(pool) || len(res.Selected) != 10 {
		t.Fatalf("result shape wrong: %d answers, %d selected", len(res.Answers), len(res.Selected))
	}
	if err := res.Hypothesis.Validate(); err != nil {
		t.Fatal(err)
	}
	d := data.Histogram()
	var worst float64
	for i, q := range pool {
		truth := q.ExactMinimize(d)[0]
		if e := math.Abs(res.Answers[i] - truth); e > worst {
			worst = e
		}
	}
	if worst > 0.12 {
		t.Errorf("MWEM worst answer error = %v", worst)
	}
	// The hypothesis must beat the uniform prior on the workload.
	uni := 0.0
	for _, q := range pool {
		var hypAns, uniAns, truth float64
		truth = q.ExactMinimize(d)[0]
		qv := make([]float64, g.Size())
		for j := range qv {
			qv[j] = q.Predicate(g.Point(j))
		}
		hypAns = vecmath.Dot(qv, res.Hypothesis.P)
		uniAns = vecmath.Sum(qv) / float64(len(qv))
		if math.Abs(uniAns-truth) > uni {
			uni = math.Abs(uniAns - truth)
		}
		_ = hypAns
	}
	if worst >= uni && uni > 0.05 {
		t.Errorf("MWEM (%v) no better than uniform prior (%v)", worst, uni)
	}
}

// MWEM under approximate DP gets a bigger per-round budget and therefore at
// least comparable accuracy.
func TestMWEMApproxDPBudget(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 100000, 17)
	pool := linearQueryPool(t, g, 30, 18)
	res, err := MWEM(MWEMConfig{Eps: 1, Delta: 1e-6, Rounds: 10}, data, sample.New(19), pool)
	if err != nil {
		t.Fatal(err)
	}
	d := data.Histogram()
	var worst float64
	for i, q := range pool {
		if e := math.Abs(res.Answers[i] - q.ExactMinimize(d)[0]); e > worst {
			worst = e
		}
	}
	if worst > 0.12 {
		t.Errorf("approx-DP MWEM worst error = %v", worst)
	}
}
