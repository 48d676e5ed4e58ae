package histogram

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/universe"
)

func TestCoordinateMarginal(t *testing.T) {
	u, err := universe.NewPoints([][]float64{
		{0, 1}, {0, 2}, {1, 1}, {1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := FromProbs(u, []float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	vals, probs, err := h.CoordinateMarginal(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 0 || vals[1] != 1 {
		t.Fatalf("vals = %v", vals)
	}
	if math.Abs(probs[0]-0.3) > 1e-12 || math.Abs(probs[1]-0.7) > 1e-12 {
		t.Fatalf("probs = %v", probs)
	}
	// Marginal over the second coordinate.
	vals, probs, err = h.CoordinateMarginal(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[0]-0.4) > 1e-12 || math.Abs(probs[1]-0.6) > 1e-12 {
		t.Fatalf("coord-1 probs = %v (vals %v)", probs, vals)
	}
	// Marginal probabilities always sum to 1.
	var s float64
	for _, p := range probs {
		s += p
	}
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("marginal mass = %v", s)
	}
	if _, _, err := h.CoordinateMarginal(-1); err == nil {
		t.Error("negative coord accepted")
	}
	if _, _, err := h.CoordinateMarginal(2); err == nil {
		t.Error("out-of-range coord accepted")
	}
}

func TestCoordinateMean(t *testing.T) {
	u, err := universe.NewPoints([][]float64{{-1, 5}, {1, 7}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := FromProbs(u, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.CoordinateMean(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.5) > 1e-12 {
		t.Errorf("mean = %v, want 0.5", m)
	}
	m, err = h.CoordinateMean(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-6.5) > 1e-12 {
		t.Errorf("mean = %v, want 6.5", m)
	}
	if _, err := h.CoordinateMean(9); err == nil {
		t.Error("bad coord accepted")
	}
}

// CoordinateMarginal returns the marginal distribution of the coord-th
// record coordinate: the distinct values it takes over the universe (in
// increasing order) and their probabilities under h. Useful for comparing
// a released synthetic dataset's one-way marginals with the truth.
// CoordinateMarginal and CoordinateMean have no caller outside the tests
// in this file.
func (h *Histogram) CoordinateMarginal(coord int) (values, probs []float64, err error) {
	if coord < 0 || coord >= h.U.Dim() {
		return nil, nil, fmt.Errorf("histogram: coordinate %d outside [0, %d)", coord, h.U.Dim())
	}
	acc := map[float64]float64{}
	buf := make([]float64, h.U.Dim())
	for i, p := range h.P {
		if p == 0 {
			continue
		}
		acc[h.U.PointInto(i, buf)[coord]] += p
	}
	values = make([]float64, 0, len(acc))
	for v := range acc {
		values = append(values, v)
	}
	sort.Float64s(values)
	probs = make([]float64, len(values))
	for i, v := range values {
		probs[i] = acc[v]
	}
	return values, probs, nil
}

// CoordinateMean returns E_h[x_coord].
func (h *Histogram) CoordinateMean(coord int) (float64, error) {
	if coord < 0 || coord >= h.U.Dim() {
		return 0, fmt.Errorf("histogram: coordinate %d outside [0, %d)", coord, h.U.Dim())
	}
	var m float64
	buf := make([]float64, h.U.Dim())
	for i, p := range h.P {
		if p == 0 {
			continue
		}
		m += p * h.U.PointInto(i, buf)[coord]
	}
	return m, nil
}
