package mech

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

func mustAcct(t *testing.T, name string, budget Params) Accountant {
	t.Helper()
	a, err := NewAccountant(name, budget)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// canonicalGaussian is the declared cost of one (ε₀, δ₀)-calibrated
// Gaussian release: ρ = Δ²/(2σ²) at σ = GaussianSigma(Δ, ε₀, δ₀), which
// is ε₀²/(4·ln(1.25/δ₀)) once Δ cancels.
func canonicalGaussian(eps0, delta0 float64) Cost {
	return Cost{Eps: eps0, Delta: delta0, Rho: eps0 * eps0 / (4 * math.Log(1.25/delta0))}
}

func TestAccountantRegistry(t *testing.T) {
	names := AccountantNames()
	want := []string{"advanced", "basic", "zcdp"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	if _, err := NewAccountant("nonsense", Params{Eps: 1, Delta: 1e-6}); !errors.Is(err, ErrUnknownAccountant) {
		t.Errorf("unknown name error = %v, want ErrUnknownAccountant", err)
	}
	// The empty name selects the default.
	a, err := NewAccountant("", Params{Eps: 1, Delta: 1e-6})
	if err != nil || a.Name() != DefaultAccountant {
		t.Errorf("default accountant = %v, %v", a, err)
	}
	// The zcdp accountant needs a δ to convert through.
	if _, err := NewAccountant("zcdp", Params{Eps: 1, Delta: 0}); err == nil {
		t.Error("zcdp with delta = 0 accepted")
	}
}

func TestAccountantReserveAndRemaining(t *testing.T) {
	for _, name := range AccountantNames() {
		budget := Params{Eps: 1, Delta: 1e-6}
		a := mustAcct(t, name, budget)
		if err := a.Reserve(Params{Eps: 0.5, Delta: 5e-7}); err != nil {
			t.Fatalf("%s: reserve: %v", name, err)
		}
		if got := a.Total(); got.Eps != 0.5 || got.Delta != 5e-7 {
			t.Errorf("%s: total after reserve = %+v", name, got)
		}
		if got := a.Remaining(); math.Abs(got.Eps-0.5) > 1e-15 {
			t.Errorf("%s: remaining = %+v", name, got)
		}
		if err := a.Reserve(Params{Eps: 0.6}); err == nil {
			t.Errorf("%s: over-reservation accepted", name)
		}
		if err := a.Spend(Cost{Eps: -1}); err == nil {
			t.Errorf("%s: negative cost accepted", name)
		}
		// Remaining clamps at zero once spends exceed the budget.
		for i := 0; i < 64; i++ {
			if err := a.Spend(ApproxCost(0.25, 1e-7)); err != nil {
				t.Fatal(err)
			}
		}
		rem := a.Remaining()
		if rem.Eps < 0 || rem.Delta < 0 {
			t.Errorf("%s: remaining went negative: %+v", name, rem)
		}
		if a.Count() != 64 {
			t.Errorf("%s: count = %d", name, a.Count())
		}
	}
}

// TestAccountantScheduleInversion checks MaxCalls is exact at each
// accountant's own schedule: for a cost declared at PerCallBudget(T)'s
// parameters, the accountant certifies at least T calls — and for the
// schedule-based accountants, exactly T.
func TestAccountantScheduleInversion(t *testing.T) {
	budget := Params{Eps: 1, Delta: 1e-6}
	for _, name := range []string{"basic", "advanced"} {
		for _, T := range []int{1, 7, 12, 200, 4096} {
			a := mustAcct(t, name, budget)
			e0, d0, err := a.PerCallBudget(T)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.MaxCalls(ApproxCost(e0, d0))
			if err != nil {
				t.Fatal(err)
			}
			if got != T {
				t.Errorf("%s: MaxCalls(PerCallBudget(%d)) = %d", name, T, got)
			}
		}
	}
	// zcdp: the schedule inverts through the canonical Gaussian cost.
	for _, T := range []int{1, 12, 200} {
		a := mustAcct(t, "zcdp", budget)
		e0, d0, err := a.PerCallBudget(T)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.MaxCalls(canonicalGaussian(e0, d0))
		if err != nil {
			t.Fatal(err)
		}
		// The ε₀ ≤ 1 cap can leave headroom, so ≥ rather than ==.
		if got < T {
			t.Errorf("zcdp: MaxCalls(PerCallBudget(%d)) = %d", T, got)
		}
	}
}

// TestAccountantTightnessGrid is the accounting-tightness table: over a
// grid of (ε, δ, T), spending T Gaussian-calibrated calls at the DRV10
// schedule's per-call budget must yield composed ε totals ordered
//
//	zCDP ≤ DRV10 advanced ≤ basic,
//
// with every reported δ within the budget. The grid stays in the
// T ≳ 8·ln(2/δ) regime where strong composition's √T advantage over basic
// is in force (below it the DRV10 schedule is conservative and basic is
// incomparable).
func TestAccountantTightnessGrid(t *testing.T) {
	for _, eps := range []float64{0.5, 1} {
		for _, delta := range []float64{1e-6, 1e-9} {
			for _, T := range []int{200, 1000, 5000} {
				budget := Params{Eps: eps, Delta: delta}
				basic := mustAcct(t, "basic", budget)
				adv := mustAcct(t, "advanced", budget)
				zcdp := mustAcct(t, "zcdp", budget)

				e0, d0, err := adv.PerCallBudget(T)
				if err != nil {
					t.Fatal(err)
				}
				cost := canonicalGaussian(e0, d0)
				for i := 0; i < T; i++ {
					for _, a := range []Accountant{basic, adv, zcdp} {
						if err := a.Spend(cost); err != nil {
							t.Fatal(err)
						}
					}
				}
				eb, ea, ez := basic.Total().Eps, adv.Total().Eps, zcdp.Total().Eps
				if !(ez < ea && ea < eb) {
					t.Errorf("(ε=%g δ=%g T=%d): want zcdp < advanced < basic, got %.4g %.4g %.4g",
						eps, delta, T, ez, ea, eb)
				}
				// The schedule was built so T calls fit the budget: the
				// sound accountants must agree.
				if ea > eps*(1+1e-9) {
					t.Errorf("(ε=%g δ=%g T=%d): advanced total %.4g exceeds budget", eps, delta, T, ea)
				}
				if ez > eps*(1+1e-9) {
					t.Errorf("(ε=%g δ=%g T=%d): zcdp total %.4g exceeds budget", eps, delta, T, ez)
				}
				for _, a := range []Accountant{adv, zcdp} {
					if d := a.Total().Delta; d > delta*(1+1e-9) {
						t.Errorf("(ε=%g δ=%g T=%d): %s delta total %.4g exceeds budget", eps, delta, T, a.Name(), d)
					}
				}
				// MaxCalls tells the same story prospectively: at this
				// per-call cost, zcdp affords more calls than the schedule's
				// T and basic fewer.
				nz, err := mustAcct(t, "zcdp", budget).MaxCalls(cost)
				if err != nil {
					t.Fatal(err)
				}
				nb, err := mustAcct(t, "basic", budget).MaxCalls(cost)
				if err != nil {
					t.Fatal(err)
				}
				if !(nb < T && T < nz) {
					t.Errorf("(ε=%g δ=%g T=%d): MaxCalls basic=%d zcdp=%d, want basic < T < zcdp", eps, delta, T, nb, nz)
				}
			}
		}
	}
}

// TestZCDPCostConversion checks the zcdp accountant's cost triage: Gaussian
// ρ rides the ρ calculus, pure DP converts via ε²/2, and uncertified
// approximate-DP costs land in the linear bucket.
func TestZCDPCostConversion(t *testing.T) {
	budget := Params{Eps: 1, Delta: 1e-6}
	a := mustAcct(t, "zcdp", budget)
	if err := a.Spend(PureCost(0.1)); err != nil {
		t.Fatal(err)
	}
	afterPure := a.Total()
	wantRho := 0.1 * 0.1 / 2
	wantDP, err := RhoToDP(wantRho, budget.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(afterPure.Eps-wantDP.Eps) > 1e-12 {
		t.Errorf("pure conversion eps = %v, want %v", afterPure.Eps, wantDP.Eps)
	}
	// An uncertified approximate spend adds linearly and halves the
	// conversion δ.
	if err := a.Spend(ApproxCost(0.2, 1e-8)); err != nil {
		t.Fatal(err)
	}
	mixed := a.Total()
	conv, err := RhoToDP(wantRho, budget.Delta/2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mixed.Eps-(conv.Eps+0.2)) > 1e-12 {
		t.Errorf("mixed eps = %v, want %v", mixed.Eps, conv.Eps+0.2)
	}
	if math.Abs(mixed.Delta-(conv.Delta+1e-8)) > 1e-20 {
		t.Errorf("mixed delta = %v", mixed.Delta)
	}
}

// TestAccountantStreaming spends a serve-scale number of times and checks
// the composed totals stay exact — the implementations keep running
// aggregates, not a per-spend slice, so this is fast and O(1) in memory.
func TestAccountantStreaming(t *testing.T) {
	const n = 200000
	budget := Params{Eps: 1, Delta: 1e-6}
	basic := mustAcct(t, "basic", budget)
	adv := mustAcct(t, "advanced", budget)
	zcdp := mustAcct(t, "zcdp", budget)
	c := Cost{Eps: 1e-6, Delta: 1e-12, Rho: 1e-12}
	for i := 0; i < n; i++ {
		for _, a := range []Accountant{basic, adv, zcdp} {
			if err := a.Spend(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := basic.Total().Eps; math.Abs(got-n*1e-6) > 1e-9 {
		t.Errorf("basic streaming eps = %v", got)
	}
	wantAdv, err := AdvancedComposition(1e-6, 1e-12, n, budget.Delta/4)
	if err != nil {
		t.Fatal(err)
	}
	if got := adv.Total().Eps; got != wantAdv.Eps {
		t.Errorf("advanced streaming eps = %v, want %v", got, wantAdv.Eps)
	}
	wantZ, err := RhoToDP(n*1e-12, budget.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if got := zcdp.Total().Eps; math.Abs(got-wantZ.Eps) > 1e-9 {
		t.Errorf("zcdp streaming eps = %v, want %v", got, wantZ.Eps)
	}
	for _, a := range []Accountant{basic, adv, zcdp} {
		if a.Count() != n {
			t.Errorf("%s count = %d", a.Name(), a.Count())
		}
	}
}

// TestAccountantConcurrency hammers each accountant from concurrent
// spenders and readers; run with -race (the CI default) it proves the
// implementations are safe without external serialization.
func TestAccountantConcurrency(t *testing.T) {
	for _, name := range AccountantNames() {
		a := mustAcct(t, name, Params{Eps: 1, Delta: 1e-6})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					if err := a.Spend(canonicalGaussian(1e-4, 1e-10)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					_ = a.Total()
					_ = a.Remaining()
					_ = a.Count()
				}
			}()
		}
		wg.Wait()
		if a.Count() != 2000 {
			t.Errorf("%s: count = %d after concurrent spends", name, a.Count())
		}
	}
}

// ExampleNewAccountant builds an accountant by name and records a spend.
func ExampleNewAccountant() {
	a, _ := NewAccountant("zcdp", Params{Eps: 1, Delta: 1e-6})
	_ = a.Spend(canonicalGaussian(0.3, 1e-7))
	fmt.Printf("%s spends=%d\n", a.Name(), a.Count())
	// Output: zcdp spends=1
}
