package universe

import (
	"math"
	"testing"
)

func TestHypercubeBasics(t *testing.T) {
	h, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != 8 {
		t.Fatalf("Size = %d, want 8", h.Size())
	}
	if h.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", h.Dim())
	}
	// Every point has unit norm.
	for i := 0; i < h.Size(); i++ {
		p := h.Point(i)
		var n2 float64
		for _, v := range p {
			n2 += v * v
		}
		if math.Abs(n2-1) > 1e-12 {
			t.Errorf("point %d norm² = %v, want 1", i, n2)
		}
	}
	// All points distinct.
	seen := map[string]bool{}
	for i := 0; i < h.Size(); i++ {
		k := ""
		for _, v := range h.Point(i) {
			if v > 0 {
				k += "+"
			} else {
				k += "-"
			}
		}
		if seen[k] {
			t.Errorf("duplicate point %q", k)
		}
		seen[k] = true
	}
}

func TestHypercubeBounds(t *testing.T) {
	if _, err := NewHypercube(0); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewHypercube(21); err == nil {
		t.Error("d=21 accepted")
	}
	if _, err := NewHypercube(1); err != nil {
		t.Errorf("d=1 rejected: %v", err)
	}
}

func TestLabeledGrid(t *testing.T) {
	g, err := NewLabeledGrid(2, 3, 1.0, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3*3*2 {
		t.Fatalf("Size = %d, want 18", g.Size())
	}
	if g.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", g.Dim())
	}
	if g.FeatureDim() != 2 {
		t.Fatalf("FeatureDim = %d", g.FeatureDim())
	}
	// Features inside the ball of radius 1; labels in {-1, +1}.
	for i := 0; i < g.Size(); i++ {
		p := g.Point(i)
		var n2 float64
		for j := 0; j < 2; j++ {
			n2 += p[j] * p[j]
		}
		if n2 > 1+1e-9 {
			t.Errorf("point %d feature norm² = %v > 1", i, n2)
		}
		if y := p[2]; y != -1 && y != 1 {
			t.Errorf("point %d label = %v, want ±1", i, y)
		}
	}
	// All points distinct.
	seen := map[[3]float64]bool{}
	for i := 0; i < g.Size(); i++ {
		p := g.Point(i)
		k := [3]float64{p[0], p[1], p[2]}
		if seen[k] {
			t.Errorf("duplicate point %v", k)
		}
		seen[k] = true
	}
}

func TestLabeledGridValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func() error
	}{
		{"featDim 0", func() error { _, err := NewLabeledGrid(0, 3, 1, 2, 1); return err }},
		{"levels 1", func() error { _, err := NewLabeledGrid(2, 1, 1, 2, 1); return err }},
		{"labels 1", func() error { _, err := NewLabeledGrid(2, 3, 1, 1, 1); return err }},
		{"radius 0", func() error { _, err := NewLabeledGrid(2, 3, 0, 2, 1); return err }},
		{"too big", func() error { _, err := NewLabeledGrid(12, 10, 1, 2, 1); return err }},
	}
	for _, c := range cases {
		if c.fn() == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestGridValues(t *testing.T) {
	vals := gridValues(3)
	want := []float64{-1, 0, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Errorf("gridValues(3)[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
	vals = gridValues(2)
	if vals[0] != -1 || vals[1] != 1 {
		t.Errorf("gridValues(2) = %v", vals)
	}
}

func TestPoints(t *testing.T) {
	p, err := NewPoints([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 || p.Dim() != 2 {
		t.Fatalf("Size/Dim = %d/%d", p.Size(), p.Dim())
	}
	if p.Point(1)[0] != 3 {
		t.Errorf("Point(1) = %v", p.Point(1))
	}
	if _, err := NewPoints(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := NewPoints([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged accepted")
	}
	if _, err := NewPoints([][]float64{{}}); err == nil {
		t.Error("zero-dim accepted")
	}
}

func TestNearest(t *testing.T) {
	p, _ := NewPoints([][]float64{{0, 0}, {1, 0}, {0, 1}})
	cases := []struct {
		v    []float64
		want int
	}{
		{[]float64{0.1, 0.1}, 0},
		{[]float64{0.9, -0.1}, 1},
		{[]float64{0.2, 0.9}, 2},
		{[]float64{0, 0}, 0}, // exact hit
	}
	for _, c := range cases {
		if got := Nearest(p, c.v); got != c.want {
			t.Errorf("Nearest(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestNearestTieBreak(t *testing.T) {
	p, _ := NewPoints([][]float64{{-1}, {1}})
	// Equidistant point: tie toward smaller index.
	if got := Nearest(p, []float64{0}); got != 0 {
		t.Errorf("tie break = %d, want 0", got)
	}
}

func TestNearestRoundTrip(t *testing.T) {
	// Every universe point is its own nearest neighbour.
	h, _ := NewHypercube(4)
	for i := 0; i < h.Size(); i++ {
		if got := Nearest(h, h.Point(i)); got != i {
			t.Errorf("Nearest(Point(%d)) = %d", i, got)
		}
	}
}

func TestLabeledGridFeatureRadius(t *testing.T) {
	g, err := NewLabeledGrid(3, 2, 0.5, 2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	maxFeat := 0.0
	for i := 0; i < g.Size(); i++ {
		p := g.Point(i)
		var n2 float64
		for j := 0; j < 3; j++ {
			n2 += p[j] * p[j]
		}
		if n := math.Sqrt(n2); n > maxFeat {
			maxFeat = n
		}
	}
	if math.Abs(maxFeat-0.5) > 1e-9 {
		t.Errorf("max feature norm = %v, want 0.5 (corner)", maxFeat)
	}
}

// TestPointIntoMatchesPoint checks the zero-alloc accessor agrees with
// Point on every element of every universe kind, tolerates oversized
// buffers, and does not allocate.
func TestPointIntoMatchesPoint(t *testing.T) {
	h, _ := NewHypercube(4)
	g, _ := NewLabeledGrid(2, 3, 1.0, 2, 1.0)
	p, _ := NewPoints([][]float64{{1, 2}, {3, 4}, {5, 6}})
	for _, u := range []Universe{h, g, p} {
		buf := make([]float64, u.Dim()+3) // oversized on purpose
		for i := 0; i < u.Size(); i++ {
			got := u.PointInto(i, buf)
			want := u.Point(i)
			if len(got) != u.Dim() {
				t.Fatalf("%s: PointInto(%d) has len %d, want %d", u, i, len(got), u.Dim())
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("%s: PointInto(%d)[%d] = %v, Point = %v", u, i, j, got[j], want[j])
				}
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			u.PointInto(0, buf)
		})
		if allocs != 0 {
			t.Errorf("%s: PointInto allocates %v per call", u, allocs)
		}
		// Writing through the returned buffer must not corrupt the universe.
		out := u.PointInto(0, buf)
		orig := append([]float64(nil), u.Point(0)...)
		out[0] += 42
		if u.Point(0)[0] != orig[0] {
			t.Errorf("%s: PointInto aliases internal storage", u)
		}
	}
}
