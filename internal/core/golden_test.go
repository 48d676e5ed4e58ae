package core

import (
	"math"
	"testing"

	"repro/internal/erm"
	"repro/internal/sample"
)

// TestGoldenDefaultAccountant freezes the released values of a fixed-seed
// run captured on the pre-accountant implementation (which hardwired the
// DRV10 SplitBudget schedule into core.New). The default ("advanced")
// accountant must reproduce every released θ, the derived parameters, and
// the reported privacy bound bit-identically: accounting became pluggable
// without perturbing a single released byte.
func TestGoldenDefaultAccountant(t *testing.T) {
	wantAnswers := [][]float64{
		{math.Float64frombits(0xbfdc99980d01a5ec), math.Float64frombits(0xbfec741d3976a48d)},
		{math.Float64frombits(0x3fb14e9f42eb731d), math.Float64frombits(0xbfd2d4adbd0ab550)},
		{math.Float64frombits(0x3fe40c51a34c65ce), math.Float64frombits(0xbfe140102aa8de69)},
		{math.Float64frombits(0x3fea36cfcf59dde3), math.Float64frombits(0x3fe0d17efe95080e)},
		{math.Float64frombits(0xbfdcc3104ece4442), math.Float64frombits(0x3fec69296661976a)},
		{math.Float64frombits(0x3fe3cc01d28e5ae9), math.Float64frombits(0x3fe5ae59a7bd4c84)},
	}
	const (
		wantT      = 6
		wantEta    = 0x1.7b7843276136fp-02
		wantEps0   = 0x1.2f43be29e706ep-06
		wantDelta0 = 0x1.65e9f80f29211p-25
		wantPrivE  = 0x1.349b4b3b9d6a8p-01
		wantPrivD  = 0x1.a905d69200d74p-21
	)

	g := testGrid(t)
	data := skewedData(t, g, 60000, 1)
	cfg := Config{
		Eps: 1, Delta: 1e-6,
		Alpha: 0.05, Beta: 0.05,
		K: 8, S: 2,
		Oracle:  erm.NoisyGD{},
		TBudget: 6,
		// Accountant left empty: the default must be "advanced".
	}
	// Explicitly naming "advanced" must be indistinguishable from the
	// default; run both and require identical releases.
	for _, name := range []string{"", "advanced"} {
		cfg.Accountant = name
		srv, err := New(cfg, data, sample.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.AccountantName(); got != "advanced" {
			t.Fatalf("accountant %q = %q, want advanced", name, got)
		}
		p := srv.Params()
		if p.T != wantT || p.Eta != wantEta || p.Eps0 != wantEps0 || p.Delta0 != wantDelta0 {
			t.Fatalf("params drifted: T=%d Eta=%x Eps0=%x Delta0=%x", p.T, p.Eta, p.Eps0, p.Delta0)
		}
		for i, l := range squaredPool(t, g, len(wantAnswers), 3) {
			theta, err := srv.Answer(l)
			if err != nil {
				t.Fatalf("answer %d: %v", i, err)
			}
			for j := range theta {
				if theta[j] != wantAnswers[i][j] {
					t.Errorf("accountant %q answer %d[%d] = %x, want %x", name, i, j, theta[j], wantAnswers[i][j])
				}
			}
		}
		priv := srv.Privacy()
		if priv.Eps != wantPrivE || priv.Delta != wantPrivD {
			t.Errorf("accountant %q privacy = (%x, %x), want (%x, %x)", name, priv.Eps, priv.Delta, wantPrivE, wantPrivD)
		}
		if srv.Updates() != 1 || srv.Answered() != len(wantAnswers) {
			t.Errorf("accountant %q updates=%d answered=%d", name, srv.Updates(), srv.Answered())
		}
	}
}

// TestGoldenFactoredEngine freezes the factored engine's released values on
// the TestCrossEngineEquivalence fixture, captured before the dense and
// factored engines shared one Figure-3 step. The cross-engine test only
// compares the engines with each other at 1e-12; this pins the factored
// bytes themselves, so a change to the shared step cannot drift both
// engines together unnoticed.
func TestGoldenFactoredEngine(t *testing.T) {
	want := []uint64{
		0x3fd0000000000000,
		0x3f77812c65774640,
		0x3fe0000000000000,
		0x3fd7dfa734915329,
		0x3fea62c3b46a2430,
		0x3fe27f5f07d05ee1,
		0x3fdfab19b18ec650,
	}
	const wantUpdates = 4
	answers, srv := runEngine(t, true, 0, 7)
	if len(answers) != len(want) {
		t.Fatalf("%d answers, want %d", len(answers), len(want))
	}
	for i, a := range answers {
		if len(a) != 1 || math.Float64bits(a[0]) != want[i] {
			t.Errorf("answer %d = %v, want [%v]", i, a, math.Float64frombits(want[i]))
		}
	}
	if srv.Updates() != wantUpdates {
		t.Errorf("updates = %d, want %d", srv.Updates(), wantUpdates)
	}
}
