package mech

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestAccountantExportRestore drives each accountant through a
// mixed spend history, snapshots it, restores into a fresh instance, and
// checks every observable — totals, remaining budget, count, MaxCalls — is
// bit-identical, then that both copies keep agreeing after further spends.
func TestAccountantExportRestore(t *testing.T) {
	budget := Params{Eps: 1, Delta: 1e-6}
	// The Cost literals are Gaussian releases, ρ = Δ²/(2σ²) at Δ = 1 and
	// σ = 30, 50.
	spends := []Cost{
		{Eps: 0.05, Delta: 1e-8, Rho: 1.0 / 1800},
		PureCost(0.02),
		ApproxCost(0.03, 1e-9),
		{Eps: 0.01, Delta: 1e-8, Rho: 1.0 / 5000},
	}
	for _, name := range AccountantNames() {
		t.Run(name, func(t *testing.T) {
			a, err := NewAccountant(name, budget)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Reserve(Params{Eps: 0.5, Delta: 5e-7}); err != nil {
				t.Fatal(err)
			}
			for _, c := range spends {
				if err := a.Spend(c); err != nil {
					t.Fatal(err)
				}
			}

			raw, err := json.Marshal(a.Export())
			if err != nil {
				t.Fatal(err)
			}
			var st AccountantState
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			b, err := NewAccountant(name, budget)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(st); err != nil {
				t.Fatal(err)
			}

			check := func(stage string) {
				t.Helper()
				if a.Total() != b.Total() {
					t.Fatalf("%s: Total %+v != %+v", stage, a.Total(), b.Total())
				}
				if a.Remaining() != b.Remaining() {
					t.Fatalf("%s: Remaining %+v != %+v", stage, a.Remaining(), b.Remaining())
				}
				if a.Count() != b.Count() {
					t.Fatalf("%s: Count %d != %d", stage, a.Count(), b.Count())
				}
				ma, erra := a.MaxCalls(spends[0])
				mb, errb := b.MaxCalls(spends[0])
				if ma != mb || (erra == nil) != (errb == nil) {
					t.Fatalf("%s: MaxCalls %d/%v != %d/%v", stage, ma, erra, mb, errb)
				}
			}
			check("after restore")
			for _, c := range spends {
				if err := a.Spend(c); err != nil {
					t.Fatal(err)
				}
				if err := b.Spend(c); err != nil {
					t.Fatal(err)
				}
			}
			check("after further spends")
		})
	}
}

// TestAccountantRestoreRejections checks name mismatches, malformed
// ledgers, another calculus's fields, and configuration drift are refused.
func TestAccountantRestoreRejections(t *testing.T) {
	budget := Params{Eps: 1, Delta: 1e-6}
	dp := budget.Delta / 4 // "advanced"'s configured δ′
	adv, _ := NewAccountant("advanced", budget)
	if err := adv.Restore(AccountantState{Name: "zcdp"}); err == nil {
		t.Error("name mismatch accepted")
	}
	if err := adv.Restore(AccountantState{Name: "advanced", Count: -1, DeltaPrime: dp}); err == nil {
		t.Error("negative count accepted")
	}
	if err := adv.Restore(AccountantState{Name: "advanced", MaxEps: -1, DeltaPrime: dp}); err == nil {
		t.Error("negative ledger field accepted")
	}
	// delta_prime drift: a snapshot taken under a different δ′.
	if err := adv.Restore(AccountantState{Name: "advanced", Count: 1, MaxEps: 0.1, DeltaPrime: 1e-9}); err == nil {
		t.Error("delta_prime drift accepted")
	}
	// Each calculus refuses a state that sets another's fields.
	for _, st := range []AccountantState{
		{Name: "basic", Count: 1, SumEps: 0.1, Rho: 1e-3},
		{Name: "advanced", Count: 1, MaxEps: 0.1, DeltaPrime: dp, SumEps: 0.1},
		{Name: "zcdp", Count: 1, Rho: 1e-3, MaxEps: 0.1},
	} {
		a, _ := NewAccountant(st.Name, budget)
		if err := a.Restore(st); err == nil {
			t.Errorf("%s: foreign ledger field accepted: %+v", st.Name, st)
		}
		if got := a.Export(); got.Count != 0 {
			t.Errorf("%s: rejected restore changed the ledger: %+v", st.Name, got)
		}
	}
	basic, _ := NewAccountant("basic", budget)
	if err := basic.Restore(basic.Export()); err != nil {
		t.Errorf("identity restore rejected: %v", err)
	}
}

// TestAccountantRestoreExportIdentity checks Restore then Export returns
// the snapshot unchanged, to the JSON byte, for every accountant after a
// reservation and mixed spends.
func TestAccountantRestoreExportIdentity(t *testing.T) {
	budget := Params{Eps: 1, Delta: 1e-6}
	for _, name := range AccountantNames() {
		a, err := NewAccountant(name, budget)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Reserve(Params{Eps: 0.5, Delta: 5e-7}); err != nil {
			t.Fatal(err)
		}
		for _, c := range []Cost{{Eps: 0.05, Delta: 1e-8, Rho: 1.0 / 1800}, PureCost(0.02), ApproxCost(0.03, 1e-9)} {
			if err := a.Spend(c); err != nil {
				t.Fatal(err)
			}
		}
		want, err := json.Marshal(a.Export())
		if err != nil {
			t.Fatal(err)
		}
		var st AccountantState
		if err := json.Unmarshal(want, &st); err != nil {
			t.Fatal(err)
		}
		b, _ := NewAccountant(name, budget)
		if err := b.Restore(st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := json.Marshal(b.Export())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Restore then Export = %s, want %s", name, got, want)
		}
	}
}
