package mw

import (
	"testing"
	"testing/quick"

	"repro/internal/sample"
	"repro/internal/universe"
	"repro/internal/vecmath"
)

// Two states fed identical update sequences must agree exactly — MW is
// deterministic given its inputs.
func TestUpdateDeterminism(t *testing.T) {
	u, err := universe.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		src := sample.New(seed)
		a, _ := New(u, 0.4, 1)
		b, _ := New(u, 0.4, 1)
		for step := 0; step < 20; step++ {
			uv := make([]float64, u.Size())
			for i := range uv {
				uv[i] = 2*src.Float64() - 1
			}
			if err := a.Update(uv); err != nil {
				return false
			}
			if err := b.Update(vecmath.Copy(uv)); err != nil {
				return false
			}
		}
		return vecmath.ApproxEqual(a.Histogram().P, b.Histogram().P, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The hypothesis remains a valid probability distribution after any legal
// update sequence.
func TestHypothesisAlwaysValid(t *testing.T) {
	u, err := universe.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		src := sample.New(seed)
		st, _ := New(u, 0.1+src.Float64(), 2)
		for step := 0; step < 30; step++ {
			uv := make([]float64, u.Size())
			for i := range uv {
				uv[i] = 2 * (2*src.Float64() - 1)
			}
			if err := st.Update(uv); err != nil {
				return false
			}
			if err := st.Histogram().Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Updating with the zero vector is a no-op on the hypothesis.
func TestZeroUpdateNoOp(t *testing.T) {
	u, err := universe.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := New(u, 0.5, 1)
	before := vecmath.Copy(st.Histogram().P)
	if err := st.Update(make([]float64, u.Size())); err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(before, st.Histogram().P, 1e-15) {
		t.Error("zero update changed the hypothesis")
	}
	if st.Updates() != 1 {
		t.Error("zero update not counted")
	}
}

// A constant update vector (same penalty everywhere) is also a no-op on
// the distribution — softmax shift invariance.
func TestConstantUpdateNoOp(t *testing.T) {
	u, err := universe.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := New(u, 0.5, 1)
	uv := make([]float64, u.Size())
	for i := range uv {
		uv[i] = 0.7
	}
	if err := st.Update(uv); err != nil {
		t.Fatal(err)
	}
	p := st.Histogram().P
	for _, v := range p {
		if v != p[0] {
			t.Fatalf("constant update broke uniformity: %v", p)
		}
	}
}
