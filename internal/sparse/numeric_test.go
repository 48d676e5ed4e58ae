package sparse

import (
	"math"
	"testing"

	"repro/internal/sample"
)

func TestNewNumericValidation(t *testing.T) {
	if _, err := NewNumeric(validConfig(), nil); err == nil {
		t.Error("nil source accepted")
	}
	cfg := validConfig()
	cfg.T = 0
	if _, err := NewNumeric(cfg, sample.New(1)); err == nil {
		t.Error("T=0 accepted")
	}
}

func TestNumericReleasesOnTop(t *testing.T) {
	cfg := Config{T: 3, K: 100, Alpha: 0.2, Eps: 1, Delta: 1e-6, Sensitivity: 0.0001}
	n, err := NewNumeric(cfg, sample.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Below threshold: no release.
	top, noisy, err := n.Query(0.01, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if top || noisy != 0 {
		t.Fatalf("bottom query released: top=%v noisy=%v", top, noisy)
	}
	// Above threshold: release close to the passed release value.
	top, noisy, err = n.Query(10*cfg.Alpha, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if !top {
		t.Fatal("clear top answered bottom")
	}
	if math.Abs(noisy-0.7) > 0.05 {
		t.Errorf("released %v, want ≈0.7 (tiny sensitivity)", noisy)
	}
	if n.sv.tops != 1 || n.sv.seen != 2 {
		t.Errorf("Tops/Seen = %d/%d", n.sv.tops, n.sv.seen)
	}
}

func TestNumericReleaseNoiseScalesWithSensitivity(t *testing.T) {
	spread := func(sens float64) float64 {
		cfg := Config{T: 200, K: 10000, Alpha: 0.2, Eps: 1, Delta: 1e-6, Sensitivity: sens}
		n, err := NewNumeric(cfg, sample.New(3))
		if err != nil {
			t.Fatal(err)
		}
		var sumSq float64
		var count int
		for count < 100 {
			top, noisy, err := n.Query(10*cfg.Alpha, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if top {
				sumSq += (noisy - 0.5) * (noisy - 0.5)
				count++
			}
		}
		return math.Sqrt(sumSq / float64(count))
	}
	small := spread(0.0001)
	big := spread(0.01)
	if big < 10*small {
		t.Errorf("release noise did not scale with sensitivity: %v vs %v", small, big)
	}
}

func TestNumericHalts(t *testing.T) {
	cfg := Config{T: 2, K: 100, Alpha: 0.2, Eps: 1, Delta: 1e-6, Sensitivity: 0.0001}
	n, err := NewNumeric(cfg, sample.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := n.Query(10*cfg.Alpha, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Halted() {
		t.Fatal("not halted after T tops")
	}
	if _, _, err := n.Query(10*cfg.Alpha, 0.5); err != ErrHalted {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
}
