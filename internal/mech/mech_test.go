package mech

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sample"
)

func TestParamsValidate(t *testing.T) {
	good := []Params{{1, 0}, {0.5, 1e-9}, {2, 0.5}}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", p, err)
		}
	}
	bad := []Params{{0, 0}, {-1, 0}, {1, -0.1}, {1, 1}, {math.NaN(), 0}, {math.Inf(1), 0}, {1, math.NaN()}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}

func TestLaplaceMechanism(t *testing.T) {
	src := sample.New(1)
	// Mean of released values concentrates on the true value; spread
	// matches sensitivity/eps.
	n := 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v, err := Laplace(src, 10, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
		sumSq += (v - 10) * (v - 10)
	}
	if mean := sum / float64(n); math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	// Var = 2b², b = 2 → 8.
	if v := sumSq / float64(n); math.Abs(v-8) > 0.4 {
		t.Errorf("variance = %v, want ~8", v)
	}
	if _, err := Laplace(src, 0, -1, 1); err == nil {
		t.Error("negative sensitivity accepted")
	}
	if _, err := Laplace(src, 0, 1, 0); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestGaussianSigma(t *testing.T) {
	sigma, err := GaussianSigma(1, 1, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2 * math.Log(1.25e5))
	if math.Abs(sigma-want) > 1e-12 {
		t.Errorf("sigma = %v, want %v", sigma, want)
	}
	if _, err := GaussianSigma(1, 1, 0); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := GaussianSigma(1, 2, 1e-5); err == nil {
		t.Error("eps>1 accepted by classical bound")
	}
	if _, err := GaussianSigma(-1, 1, 1e-5); err == nil {
		t.Error("negative sensitivity accepted")
	}
}

func TestGaussianMechanism(t *testing.T) {
	src := sample.New(2)
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		v, err := Gaussian(src, 5, 1, 1, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-5) > 0.1 {
		t.Errorf("mean = %v", mean)
	}
}

// The exponential mechanism must sample index i with probability
// ∝ exp(ε·score_i / (2·sens)). Check the empirical distribution.
func TestExponentialDistribution(t *testing.T) {
	src := sample.New(3)
	eps, sens := 2.0, 1.0
	scores := []float64{0, 1, 2}
	// Weights ∝ exp(eps·s/2) = {1, e, e²}.
	w := []float64{1, math.E, math.E * math.E}
	z := w[0] + w[1] + w[2]
	n := 150000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		idx, err := Exponential(src, scores, sens, eps)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	for i := range counts {
		got := float64(counts[i]) / float64(n)
		want := w[i] / z
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestExponentialValidation(t *testing.T) {
	src := sample.New(4)
	if _, err := Exponential(src, nil, 1, 1); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := Exponential(src, []float64{1}, 0, 1); err == nil {
		t.Error("sens=0 accepted")
	}
	if _, err := Exponential(src, []float64{1}, 1, 0); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestReportNoisyMaxPrefersLargeScores(t *testing.T) {
	src := sample.New(5)
	scores := []float64{0, 0, 5}
	n := 20000
	var wins int
	for i := 0; i < n; i++ {
		idx, err := ReportNoisyMax(src, scores, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 2 {
			wins++
		}
	}
	if rate := float64(wins) / float64(n); rate < 0.9 {
		t.Errorf("clear winner selected only %v of the time", rate)
	}
	if _, err := ReportNoisyMax(src, nil, 1, 1); err == nil {
		t.Error("empty accepted")
	}
	if _, err := ReportNoisyMax(src, []float64{1}, -1, 1); err == nil {
		t.Error("bad sens accepted")
	}
}

func TestBasicComposition(t *testing.T) {
	p := BasicComposition(0.1, 1e-6, 10)
	if math.Abs(p.Eps-1) > 1e-12 || math.Abs(p.Delta-1e-5) > 1e-18 {
		t.Errorf("basic = %+v", p)
	}
}

// Theorem 3.10 arithmetic against a hand-computed instance:
// ε₀=0.1, T=100, δ′=1e-6 → ε = √(2·100·ln(1e6))·0.1 + 2·100·0.01.
func TestAdvancedCompositionHandChecked(t *testing.T) {
	p, err := AdvancedComposition(0.1, 1e-8, 100, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	wantEps := math.Sqrt(2*100*math.Log(1e6))*0.1 + 2
	if math.Abs(p.Eps-wantEps) > 1e-9 {
		t.Errorf("eps = %v, want %v", p.Eps, wantEps)
	}
	wantDelta := 1e-6 + 100*1e-8
	if math.Abs(p.Delta-wantDelta) > 1e-18 {
		t.Errorf("delta = %v, want %v", p.Delta, wantDelta)
	}
}

func TestAdvancedCompositionValidation(t *testing.T) {
	if _, err := AdvancedComposition(0.1, 0, 0, 1e-6); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := AdvancedComposition(0.1, 0, 10, 0); err == nil {
		t.Error("delta'=0 accepted")
	}
	if _, err := AdvancedComposition(-0.1, 0, 10, 1e-6); err == nil {
		t.Error("negative eps0 accepted")
	}
}

// Advanced composition beats basic composition for small ε₀ and large T —
// the whole reason the paper can afford T oracle calls.
func TestAdvancedBeatsBasicForManyMechanisms(t *testing.T) {
	eps0 := 0.01
	T := 1000
	adv, err := AdvancedComposition(eps0, 0, T, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	basic := BasicComposition(eps0, 0, T)
	if adv.Eps >= basic.Eps {
		t.Errorf("advanced (%v) not better than basic (%v)", adv.Eps, basic.Eps)
	}
}

// The paper's split schedule must actually satisfy its promise: composing T
// mechanisms at (ε₀, δ₀) = SplitBudget(ε, δ, T) stays within (ε, δ) under
// Theorem 3.10 with δ′ = δ/2. Property-check over a parameter grid.
func TestSplitBudgetRoundTrip(t *testing.T) {
	f := func(rawEps, rawDelta float64, rawT int) bool {
		eps := 0.05 + math.Mod(math.Abs(rawEps), 1.0)      // (0.05, 1.05)
		delta := 1e-9 + math.Mod(math.Abs(rawDelta), 1e-3) // tiny
		T := 1 + rawT%2000
		if T < 1 {
			T = 1
		}
		eps0, delta0, err := SplitBudget(eps, delta, T)
		if err != nil {
			return false
		}
		got, err := AdvancedComposition(eps0, delta0, T, delta/2)
		if err != nil {
			return false
		}
		// ε = √(2T ln(2/δ))·ε₀ + 2T ε₀² = ε/2 + ε²/(4 ln(2/δ)) ≤ ε for ε ≤ 1ish.
		return got.Eps <= eps+1e-9 && got.Delta <= delta+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBudgetValidation(t *testing.T) {
	if _, _, err := SplitBudget(1, 0, 10); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, _, err := SplitBudget(1, 1e-6, 0); err == nil {
		t.Error("T=0 accepted")
	}
	if _, _, err := SplitBudget(0, 1e-6, 10); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestAccountantTotals(t *testing.T) {
	budget := Params{Eps: 1, Delta: 1e-6}
	basic, err := NewAccountant("basic", budget)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewAccountant("advanced", budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Accountant{basic, adv} {
		if got := a.Total(); got.Eps != 0 || got.Delta != 0 {
			t.Errorf("%s: empty total = %+v", a.Name(), got)
		}
		for i := 0; i < 5; i++ {
			if err := a.Spend(ApproxCost(0.1, 1e-7)); err != nil {
				t.Fatal(err)
			}
		}
		if a.Count() != 5 {
			t.Errorf("%s: Count = %d", a.Name(), a.Count())
		}
	}
	if got := basic.Total(); math.Abs(got.Eps-0.5) > 1e-12 {
		t.Errorf("basic eps = %v", got.Eps)
	}
	want, _ := AdvancedComposition(0.1, 1e-7, 5, budget.Delta/4)
	if got := adv.Total(); math.Abs(got.Eps-want.Eps) > 1e-12 {
		t.Errorf("advanced = %v, want %v", got.Eps, want.Eps)
	}
}

// Empirical DP check of the Laplace mechanism itself: on two adjacent
// values (differing by the sensitivity), output histograms must satisfy
// P₀(S) ≤ e^ε·P₁(S) + slack for interval events S.
func TestLaplaceMechanismEmpiricalDP(t *testing.T) {
	src := sample.New(6)
	eps := 1.0
	n := 300000
	bins := 30
	lo, hi := -6.0, 7.0
	width := (hi - lo) / float64(bins)
	h0 := make([]float64, bins)
	h1 := make([]float64, bins)
	for i := 0; i < n; i++ {
		v0, _ := Laplace(src, 0, 1, eps)
		v1, _ := Laplace(src, 1, 1, eps)
		if v0 >= lo && v0 < hi {
			h0[int((v0-lo)/width)]++
		}
		if v1 >= lo && v1 < hi {
			h1[int((v1-lo)/width)]++
		}
	}
	for i := 0; i < bins; i++ {
		p0 := h0[i] / float64(n)
		p1 := h1[i] / float64(n)
		if p0 < 0.003 || p1 < 0.003 {
			continue
		}
		if p0 > math.Exp(eps)*p1*1.15 || p1 > math.Exp(eps)*p0*1.15 {
			t.Errorf("bin %d violates ε=1 ratio: p0=%v p1=%v", i, p0, p1)
		}
	}
}

// Gaussian releases value + N(0, σ²) with σ from GaussianSigma. Gaussian
// and ReportNoisyMax have no caller outside the tests in this file.
func Gaussian(src *sample.Source, value, sensitivity, eps, delta float64) (float64, error) {
	sigma, err := GaussianSigma(sensitivity, eps, delta)
	if err != nil {
		return 0, err
	}
	return value + src.Gaussian(0, sigma), nil
}

// ReportNoisyMax returns argmaxᵢ (scoreᵢ + Lap(2·sens/ε)), the (ε, 0)-DP
// noisy-max selection mechanism.
func ReportNoisyMax(src *sample.Source, scores []float64, sens, eps float64) (int, error) {
	if len(scores) == 0 {
		return 0, fmt.Errorf("mech: no candidates")
	}
	if sens <= 0 {
		return 0, fmt.Errorf("mech: score sensitivity %v must be positive", sens)
	}
	if err := (Params{Eps: eps}).Validate(); err != nil {
		return 0, err
	}
	b := 2 * sens / eps
	best := math.Inf(-1)
	bestIdx := 0
	for i, s := range scores {
		if v := s + src.Laplace(b); v > best {
			best = v
			bestIdx = i
		}
	}
	return bestIdx, nil
}
