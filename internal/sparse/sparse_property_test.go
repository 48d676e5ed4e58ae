package sparse

import (
	"testing"
	"testing/quick"

	"repro/internal/sample"
)

// Structural invariants of any SV run: Tops ≤ T, Seen ≤ K, and Halted ⇔
// (Tops = T or Seen = K). Checked over random query streams.
func TestSVInvariants(t *testing.T) {
	f := func(seed int64, rawT, rawK uint8) bool {
		T := 1 + int(rawT)%6
		K := 1 + int(rawK)%40
		cfg := Config{T: T, K: K, Alpha: 0.2, Eps: 1, Delta: 1e-6, Sensitivity: 0.01}
		src := sample.New(seed)
		sv, err := New(cfg, src)
		if err != nil {
			return false
		}
		for !sv.Halted() {
			// Random stream straddling the threshold.
			v := src.Float64() * 0.4
			if _, err := sv.Query(v); err != nil {
				return false
			}
			if sv.tops > T || sv.seen > K {
				return false
			}
		}
		if sv.tops != T && sv.seen != K {
			return false
		}
		// Post-halt queries always fail.
		if _, err := sv.Query(1); err != ErrHalted {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// SV runs are deterministic given the seed and the query stream.
func TestSVDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{T: 4, K: 30, Alpha: 0.2, Eps: 1, Delta: 1e-6, Sensitivity: 0.01}
		run := func() []bool {
			src := sample.New(seed)
			sv, err := New(cfg, src)
			if err != nil {
				return nil
			}
			qsrc := sample.New(seed + 1)
			var out []bool
			for !sv.Halted() {
				top, err := sv.Query(qsrc.Float64() * 0.4)
				if err != nil {
					return nil
				}
				out = append(out, top)
			}
			return out
		}
		a, b := run(), run()
		if a == nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
