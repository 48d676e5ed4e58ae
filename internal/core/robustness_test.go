package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/optimize"
	"repro/internal/sample"
)

// failingOracle errors on every call.
type failingOracle struct{}

func (failingOracle) Name() string { return "failing" }
func (failingOracle) Answer(*sample.Source, convex.Loss, *dataset.Dataset, float64, float64) ([]float64, error) {
	return nil, fmt.Errorf("oracle exploded")
}

// escapingOracle returns a far out-of-domain point.
type escapingOracle struct{}

func (escapingOracle) Name() string { return "escaping" }
func (escapingOracle) Answer(_ *sample.Source, l convex.Loss, _ *dataset.Dataset, _, _ float64) ([]float64, error) {
	out := make([]float64, l.Domain().Dim())
	for i := range out {
		out[i] = 100
	}
	return out, nil
}

// wrongDimOracle returns a vector of the wrong dimension.
type wrongDimOracle struct{}

func (wrongDimOracle) Name() string { return "wrongdim" }
func (wrongDimOracle) Answer(_ *sample.Source, l convex.Loss, _ *dataset.Dataset, _, _ float64) ([]float64, error) {
	return make([]float64, l.Domain().Dim()+3), nil
}

// driveToTop asks hard queries until the oracle is invoked; returns the
// first error encountered.
func driveToTop(t *testing.T, srv *Server, pool []convex.Loss) error {
	t.Helper()
	for _, l := range pool {
		if _, err := srv.Answer(l); err != nil {
			return err
		}
	}
	return nil
}

func TestOracleFailurePropagates(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 60000, 40)
	cfg := validConfig()
	cfg.Alpha = 0.02 // force a ⊤ quickly
	cfg.Oracle = failingOracle{}
	srv, err := New(cfg, data, sample.New(41))
	if err != nil {
		t.Fatal(err)
	}
	pool := linearPool(t, g, 40, 42)
	err = driveToTop(t, srv, pool)
	if err == nil {
		t.Skip("no query crossed the threshold on this seed")
	}
	if !strings.Contains(err.Error(), "oracle") {
		t.Errorf("error does not identify the oracle: %v", err)
	}
}

// An oracle that escapes the domain must not break the server: the answer
// gets projected and the MW update stays within its scale bound.
func TestEscapingOracleIsProjected(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 60000, 43)
	cfg := validConfig()
	cfg.Alpha = 0.02
	cfg.Oracle = escapingOracle{}
	srv, err := New(cfg, data, sample.New(44))
	if err != nil {
		t.Fatal(err)
	}
	pool := linearPool(t, g, 40, 45)
	sawUpdate := false
	for _, l := range pool {
		theta, err := srv.Answer(l)
		if err == ErrHalted {
			break
		}
		if err != nil {
			t.Fatalf("server failed on escaping oracle: %v", err)
		}
		if !l.Domain().Contains(theta, 1e-6) {
			t.Fatalf("answer escaped domain: %v", theta)
		}
		if srv.Updates() > 0 {
			sawUpdate = true
		}
	}
	if !sawUpdate {
		t.Skip("no updates on this seed")
	}
}

func TestWrongDimensionOracleRejected(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 60000, 46)
	cfg := validConfig()
	cfg.Alpha = 0.02
	cfg.Oracle = wrongDimOracle{}
	srv, err := New(cfg, data, sample.New(47))
	if err != nil {
		t.Fatal(err)
	}
	pool := linearPool(t, g, 40, 48)
	err = driveToTop(t, srv, pool)
	if err == nil {
		t.Skip("no query crossed the threshold on this seed")
	}
	if !strings.Contains(err.Error(), "dimension") {
		t.Errorf("error does not mention the dimension: %v", err)
	}
}

func TestSyntheticRows(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 100000, 49)
	cfg := validConfig()
	cfg.Alpha = 0.02
	srv, err := New(cfg, data, sample.New(50))
	if err != nil {
		t.Fatal(err)
	}
	pool := linearPool(t, g, 60, 51)
	for _, l := range pool {
		if _, err := srv.Answer(l); err != nil {
			break
		}
	}
	if _, err := srv.SyntheticRows(sample.New(1), 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := srv.SyntheticRows(nil, 10); err == nil {
		t.Error("nil source accepted")
	}
	synth, err := srv.SyntheticRows(sample.New(52), 50000)
	if err != nil {
		t.Fatal(err)
	}
	if synth.N() != 50000 {
		t.Fatalf("synthetic size = %d", synth.N())
	}
	// The synthetic dataset approximates the hypothesis, and the hypothesis
	// approximates the data on the exercised queries: compare the synthetic
	// dataset's query answers to the true ones.
	d := data.Histogram()
	sd := synth.Histogram()
	var worstSynth, worstUniform float64
	for _, l := range pool[:20] {
		lq := l.(*convex.LinearQuery)
		truth := lq.ExactMinimize(d)[0]
		if e := math.Abs(lq.ExactMinimize(sd)[0] - truth); e > worstSynth {
			worstSynth = e
		}
		// Uniform baseline for context.
		uni := 0.0
		for i := 0; i < g.Size(); i++ {
			uni += lq.Predicate(g.Point(i))
		}
		uni /= float64(g.Size())
		if e := math.Abs(uni - truth); e > worstUniform {
			worstUniform = e
		}
	}
	if srv.Updates() > 0 && worstSynth >= worstUniform {
		t.Errorf("synthetic data (%v) no better than uniform (%v) after %d updates",
			worstSynth, worstUniform, srv.Updates())
	}
}

// Exhaustive verification of the paper's §3.4.2 sensitivity bound: over a
// tiny universe and ALL adjacent dataset pairs, the sparse-vector query
// err_ℓ(D, D̂) moves by at most 3S/n.
func TestErrSensitivityExhaustive(t *testing.T) {
	g := testGrid(t)
	src := sample.New(53)
	// Small n so we can enumerate all (j, v) replacements exactly.
	n := 6
	rows := make([]int, n)
	for i := range rows {
		rows[i] = src.Intn(g.Size())
	}
	data, err := dataset.New(g, rows)
	if err != nil {
		t.Fatal(err)
	}
	losses := squaredPool(t, g, 5, 54)
	// The public hypothesis D̂ is fixed while D varies over neighbours;
	// use the uniform histogram (the algorithm's starting hypothesis).
	hyp := histogram.Uniform(g)
	for _, l := range losses {
		s := convex.ScaleBound(l)
		bound := 3*s/float64(n) + 1e-9
		// err_ℓ(D, D̂): evaluate D̂'s minimizer on D, minus D's optimum.
		thetaHat, err := optimize.Minimize(l, hyp, optimize.Options{MaxIters: 600})
		if err != nil {
			t.Fatal(err)
		}
		errOf := func(d *dataset.Dataset) float64 {
			hh := d.Histogram()
			minD, err := optimize.MinValue(l, hh, optimize.Options{MaxIters: 600})
			if err != nil {
				t.Fatal(err)
			}
			e := convex.EvalOn(nil, l, thetaHat.Theta, hh) - minD
			if e < 0 {
				e = 0
			}
			return e
		}
		base := errOf(data)
		for j := 0; j < n; j++ {
			for v := 0; v < g.Size(); v += 3 { // stride keeps runtime sane
				adj := data.Adjacent(j, v)
				if diff := math.Abs(errOf(adj) - base); diff > bound {
					t.Fatalf("loss %s: |Δerr| = %v > 3S/n = %v (j=%d v=%d)", l.Name(), diff, bound, j, v)
				}
			}
		}
	}
}
