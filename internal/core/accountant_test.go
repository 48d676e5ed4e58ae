package core

import (
	"errors"
	"testing"

	"repro/internal/convex"
	"repro/internal/erm"
	"repro/internal/mech"
	"repro/internal/sample"
)

// acctConfig is the fixed (ε, δ, α) configuration the accountant
// comparisons run at; only cfg.Accountant varies.
func acctConfig() Config {
	return Config{
		Eps: 1, Delta: 1e-6,
		Alpha: 0.05, Beta: 0.05,
		K: 500, S: 2,
		Oracle:  erm.NoisyGD{},
		TBudget: 12,
	}
}

// TestZCDPAdmitsMoreUpdates is the core-level accounting-tightness check:
// at identical (ε, δ, α) and identical per-call noise (Params.Eps0/Delta0
// come from the same Theorem-3.10 schedule), the zcdp accountant certifies
// a strictly larger MW update horizon than the default advanced accounting
// for a Gaussian-noise oracle.
func TestZCDPAdmitsMoreUpdates(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 60000, 1)

	cfg := acctConfig()
	adv, err := New(cfg, data, sample.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Accountant = "zcdp"
	zc, err := New(cfg, data, sample.New(7))
	if err != nil {
		t.Fatal(err)
	}

	pa, pz := adv.Params(), zc.Params()
	if pa.T != 12 {
		t.Fatalf("advanced T = %d, want the requested 12", pa.T)
	}
	if pz.T <= pa.T {
		t.Fatalf("zcdp T = %d, want strictly more than advanced %d", pz.T, pa.T)
	}
	if pz.T > cfg.K {
		t.Errorf("zcdp T = %d exceeds the query cap %d it can never spend", pz.T, cfg.K)
	}
	// The per-call noise contract is shared: same schedule, same accuracy
	// per answer.
	if pz.Eps0 != pa.Eps0 || pz.Delta0 != pa.Delta0 {
		t.Errorf("per-call budgets differ: (%v, %v) vs (%v, %v)", pz.Eps0, pz.Delta0, pa.Eps0, pa.Delta0)
	}
	t.Logf("update horizon at (ε=%g, δ=%g, α=%g): advanced=%d zcdp=%d (%.1f×)",
		cfg.Eps, cfg.Delta, cfg.Alpha, pa.T, pz.T, float64(pz.T)/float64(pa.T))

	// The zcdp session actually runs, spends ρ, and reports a total within
	// budget.
	for i, l := range squaredPool(t, g, 4, 3) {
		if _, err := zc.Answer(l); err != nil {
			t.Fatalf("zcdp answer %d: %v", i, err)
		}
	}
	priv := zc.Privacy()
	if priv.Eps > cfg.Eps+1e-9 || priv.Delta > cfg.Delta+1e-15 {
		t.Errorf("zcdp privacy %+v exceeds budget", priv)
	}
	rem := zc.Remaining()
	if rem.Eps <= 0 {
		t.Errorf("zcdp remaining eps %v not positive after 4 queries", rem.Eps)
	}
	if zc.CallCost().Rho <= 0 {
		t.Errorf("NoisyGD call cost carries no ρ certificate: %+v", zc.CallCost())
	}
}

// TestAccountantHorizonOrdering pins the three accountants' horizons in
// the paper's large-T regime (no TBudget override): loose accounting
// affords fewer calls at Figure 3's per-call noise level, tight accounting
// at least as many.
func TestAccountantHorizonOrdering(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 60000, 1)
	cfg := acctConfig()
	cfg.TBudget = 0 // paper worst-case schedule: T in the thousands
	cfg.Alpha = 0.125

	horizon := map[string]int{}
	for _, name := range []string{"basic", "advanced", "zcdp"} {
		cfg.Accountant = name
		srv, err := New(cfg, data, sample.New(7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		horizon[name] = srv.Params().T
	}
	if !(horizon["basic"] < horizon["advanced"]) {
		t.Errorf("want basic < advanced in the large-T regime, got %v", horizon)
	}
	if horizon["zcdp"] < horizon["advanced"] {
		t.Errorf("want zcdp ≥ advanced, got %v", horizon)
	}
	t.Logf("paper-schedule horizons: %v", horizon)
}

// TestUnknownAccountantIsTyped checks the unknown-name error surfaces through
// core.New as mech.ErrUnknownAccountant (the HTTP layer maps it to 400).
func TestUnknownAccountantIsTyped(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 1000, 1)
	cfg := acctConfig()
	cfg.Accountant = "renyi"
	if _, err := New(cfg, data, sample.New(1)); !errors.Is(err, mech.ErrUnknownAccountant) {
		t.Errorf("error = %v, want ErrUnknownAccountant", err)
	}
}

// TestOfflineAndLinearPMWLedger checks the offline and HR10 variants
// thread their spends through the accountant: the recorded composition is
// reported and stays within the schedule guarantee.
func TestOfflineAndLinearPMWLedger(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 60000, 1)

	res, err := AnswerOffline(OfflineConfig{
		Eps: 1, Delta: 1e-6, Rounds: 3, S: 2,
		Oracle: erm.NoisyGD{Iters: 16},
	}, data, sample.New(5), squaredPool(t, g, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accountant != "advanced" {
		t.Errorf("offline accountant = %q", res.Accountant)
	}
	if res.Accounted.Eps <= 0 || res.Accounted.Eps > 1+1e-9 {
		t.Errorf("offline accounted eps = %v", res.Accounted.Eps)
	}

	lp, err := NewLinearPMW(LinearPMWConfig{
		Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 20, TBudget: 8,
		Accountant: "zcdp",
	}, data, sample.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if lp.acct.Name() != "zcdp" {
		t.Errorf("linear accountant = %q", lp.acct.Name())
	}
	answered := 0
	for _, l := range linearPool(t, g, 10, 4) {
		if _, err := lp.Answer(l.(*convex.LinearQuery)); err != nil {
			if errors.Is(err, ErrHalted) {
				break // update budget exhausted: expected on skewed data
			}
			t.Fatal(err)
		}
		answered++
	}
	if answered == 0 {
		t.Fatal("no linear queries answered")
	}
	priv := lp.acct.Total()
	if priv.Eps <= 0.5 || priv.Eps > 1+1e-9 {
		t.Errorf("linear PMW accounted eps = %v, want in (0.5, 1]", priv.Eps)
	}
	if priv.Delta > 1e-6+1e-15 {
		t.Errorf("linear PMW accounted delta = %v", priv.Delta)
	}
}
