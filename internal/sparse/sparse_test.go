package sparse

import (
	"math"
	"testing"

	"repro/internal/mech"
	"repro/internal/sample"
)

func validConfig() Config {
	return Config{T: 3, K: 100, Alpha: 0.2, Eps: 1, Delta: 1e-6, Sensitivity: 0.001}
}

func TestNewValidation(t *testing.T) {
	src := sample.New(1)
	mutations := []func(*Config){
		func(c *Config) { c.T = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Eps = 0 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.Delta = 1 },
		func(c *Config) { c.Sensitivity = 0 },
	}
	for i, m := range mutations {
		cfg := validConfig()
		m(&cfg)
		if _, err := New(cfg, src); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := New(validConfig(), src); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestHaltsAfterTTops(t *testing.T) {
	src := sample.New(2)
	cfg := validConfig()
	sv, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	// Feed values far above the threshold: every answer should be ⊤ (noise
	// is tiny relative to the margin) and SV must halt after exactly T.
	var tops int
	for i := 0; i < cfg.T; i++ {
		if sv.Halted() {
			t.Fatalf("halted early after %d tops", tops)
		}
		top, err := sv.Query(10 * cfg.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		if top {
			tops++
		}
	}
	if tops != cfg.T {
		t.Fatalf("tops = %d, want %d", tops, cfg.T)
	}
	if !sv.Halted() {
		t.Fatal("not halted after T tops")
	}
	if _, err := sv.Query(10 * cfg.Alpha); err != ErrHalted {
		t.Fatalf("query after halt: err = %v, want ErrHalted", err)
	}
	if sv.tops != cfg.T || sv.seen != cfg.T {
		t.Errorf("Tops/Seen = %d/%d", sv.tops, sv.seen)
	}
}

func TestHaltsAfterKQueries(t *testing.T) {
	src := sample.New(3)
	cfg := validConfig()
	cfg.K = 5
	sv, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.K; i++ {
		if _, err := sv.Query(0); err != nil { // far below threshold
			t.Fatal(err)
		}
	}
	if !sv.Halted() {
		t.Fatal("not halted after K queries")
	}
	if _, err := sv.Query(0); err != ErrHalted {
		t.Fatal("expected ErrHalted")
	}
}

// Theorem 3.1's accuracy contract: with the noise scales used, queries at
// ≥ α answer ⊤ and queries at ≤ α/2 answer ⊥ with high probability, when
// the sensitivity is small enough (i.e. n large enough).
func TestAccuracyContract(t *testing.T) {
	cfg := Config{T: 5, K: 2000, Alpha: 0.2, Eps: 1, Delta: 1e-6, Sensitivity: 0.0001}
	runs := 200
	var wrongTop, wrongBottom, totalTop, totalBottom int
	for r := 0; r < runs; r++ {
		src := sample.New(int64(100 + r))
		sv, err := New(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 50 && !sv.Halted(); q++ {
			// Alternate far-below and occasionally above threshold.
			var value float64
			above := q%10 == 9
			if above {
				value = cfg.Alpha * 1.2
			} else {
				value = cfg.Alpha * 0.3
			}
			top, err := sv.Query(value)
			if err != nil {
				t.Fatal(err)
			}
			if above {
				totalTop++
				if !top {
					wrongTop++
				}
			} else {
				totalBottom++
				if top {
					wrongBottom++
				}
			}
		}
	}
	if rate := float64(wrongTop) / float64(totalTop); rate > 0.02 {
		t.Errorf("above-threshold miss rate = %v", rate)
	}
	if rate := float64(wrongBottom) / float64(totalBottom); rate > 0.02 {
		t.Errorf("below-threshold false-positive rate = %v", rate)
	}
}

// With large sensitivity (small n), the contract must degrade — this guards
// against the test above passing vacuously (e.g. if noise were ignored).
func TestAccuracyDegradesWithSensitivity(t *testing.T) {
	cfg := Config{T: 5, K: 2000, Alpha: 0.2, Eps: 1, Delta: 1e-6, Sensitivity: 0.05}
	var mistakes, total int
	for r := 0; r < 100; r++ {
		src := sample.New(int64(500 + r))
		sv, err := New(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20 && !sv.Halted(); q++ {
			top, err := sv.Query(cfg.Alpha * 0.3) // should be ⊥
			if err != nil {
				t.Fatal(err)
			}
			total++
			if top {
				mistakes++
			}
		}
	}
	if mistakes == 0 {
		t.Errorf("no mistakes over %d noisy queries at huge sensitivity — noise seems unused", total)
	}
}

// Privacy smoke test: the sequence of answers on adjacent inputs (query
// streams differing by the sensitivity) should have similar distributions.
// We check the probability of "first answer is ⊤" for borderline queries.
func TestAnswerDistributionStableUnderAdjacency(t *testing.T) {
	cfg := Config{T: 1, K: 1, Alpha: 0.2, Eps: 0.5, Delta: 1e-6, Sensitivity: 0.01}
	n := 40000
	count := func(value float64, seedBase int64) int {
		tops := 0
		for i := 0; i < n; i++ {
			src := sample.New(seedBase + int64(i))
			sv, err := New(cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			top, err := sv.Query(value)
			if err != nil {
				t.Fatal(err)
			}
			if top {
				tops++
			}
		}
		return tops
	}
	// Borderline value: exactly at the effective threshold 3α/4.
	v := 0.75 * cfg.Alpha
	p0 := float64(count(v, 1_000_000)) / float64(n)
	p1 := float64(count(v+cfg.Sensitivity, 2_000_000)) / float64(n)
	// For an (ε,δ)-DP bit with these parameters the ratio is bounded by
	// e^{ε₀·...}; we assert a loose multiplicative bound that a broken
	// (noiseless) implementation would violate wildly (it would give 0/1).
	if p0 == 0 || p1 == 0 || p0 == 1 || p1 == 1 {
		t.Fatalf("degenerate probabilities p0=%v p1=%v — mechanism looks deterministic", p0, p1)
	}
	ratio := p1 / p0
	if ratio > math.Exp(cfg.Eps)*1.3 || ratio < math.Exp(-cfg.Eps)/1.3 {
		t.Errorf("adjacent-input top rates differ too much: p0=%v p1=%v", p0, p1)
	}
}

func TestMinDatasetSizeShape(t *testing.T) {
	cfg := validConfig()
	n1 := MinDatasetSize(1, cfg, 0.05)
	if n1 <= 0 {
		t.Fatalf("n = %d", n1)
	}
	// Doubling T multiplies n by ~√2.
	cfg2 := cfg
	cfg2.T = 4 * cfg.T
	n2 := MinDatasetSize(1, cfg2, 0.05)
	ratio := float64(n2) / float64(n1)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("n scaling with 4×T = %v, want ~2", ratio)
	}
	// Halving alpha doubles n.
	cfg3 := cfg
	cfg3.Alpha = cfg.Alpha / 2
	n3 := MinDatasetSize(1, cfg3, 0.05)
	ratio = float64(n3) / float64(n1)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("n scaling with α/2 = %v, want ~2", ratio)
	}
	// Invalid beta falls back rather than exploding.
	if got := MinDatasetSize(1, cfg, -1); got <= 0 {
		t.Errorf("fallback beta n = %d", got)
	}
}

func TestPrivacyAccessor(t *testing.T) {
	src := sample.New(4)
	sv, err := New(validConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	p := sv.Privacy()
	if p.Eps != 1 || p.Delta != 1e-6 {
		t.Errorf("Privacy = %+v", p)
	}
}

// Privacy returns the total (ε, δ) guarantee of the run. It has no caller
// outside the tests in this file.
func (sv *SV) Privacy() mech.Params {
	return mech.Params{Eps: sv.cfg.Eps, Delta: sv.cfg.Delta}
}
