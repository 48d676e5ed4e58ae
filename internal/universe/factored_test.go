package universe

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestProductHypercubeMatchesDense pins the bit-level equivalence of the
// implicit and dense hypercube representations: same index convention,
// same coordinate values, pointwise identical.
func TestProductHypercubeMatchesDense(t *testing.T) {
	for _, d := range []int{1, 3, 7, 12} {
		h, err := NewHypercube(d)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProductHypercube(d)
		if err != nil {
			t.Fatal(err)
		}
		if h.Size() != p.Size() || h.Dim() != p.Dim() {
			t.Fatalf("d=%d: size/dim mismatch %d/%d vs %d/%d", d, h.Size(), h.Dim(), p.Size(), p.Dim())
		}
		buf := make([]float64, d)
		for i := 0; i < h.Size(); i++ {
			hp := h.Point(i)
			pp := p.PointInto(i, buf)
			for j := range hp {
				if hp[j] != pp[j] {
					t.Fatalf("d=%d point %d coord %d: dense %v vs product %v", d, i, j, hp[j], pp[j])
				}
			}
		}
	}
}

func TestProductHypercubeLargeD(t *testing.T) {
	p, err := NewProductHypercube(30)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1<<30 {
		t.Fatalf("Size = %d, want 2^30", p.Size())
	}
	if err := EnsureDense(p); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("EnsureDense at d=30: err = %v, want ErrTooLarge", err)
	}
	// Point vectors must still decode correctly at indexes past 2^22.
	i := (1 << 29) | 12345
	pt := p.Point(i)
	scale := 1 / math.Sqrt(30)
	for j := 0; j < 30; j++ {
		want := -scale
		if i>>uint(j)&1 == 1 {
			want = scale
		}
		if pt[j] != want {
			t.Fatalf("coord %d of index %d: got %v want %v", j, i, pt[j], want)
		}
	}
	if _, err := NewProductHypercube(53); err == nil {
		t.Error("d=53 accepted")
	}
	if _, err := NewProductHypercube(0); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestNewProductValidation(t *testing.T) {
	if _, err := NewProduct(nil, ""); err == nil {
		t.Error("empty factor list accepted")
	}
	if _, err := NewProduct([][]float64{{1}, {}}, ""); err == nil {
		t.Error("empty factor accepted")
	}
	big := make([]float64, 1<<13)
	if _, err := NewProduct([][]float64{big, big, big, big, big}, ""); err == nil {
		t.Error("2^65-size product accepted")
	}
	p, err := NewProduct([][]float64{{1, 2}, {10, 20, 30}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 6 {
		t.Fatalf("Size = %d, want 6", p.Size())
	}
	// Factor slices are copied at construction.
	src := [][]float64{{1, 2}}
	q, _ := NewProduct(src, "")
	src[0][0] = 99
	if q.CoordValue(0, 0) != 1 {
		t.Error("NewProduct aliases caller slices")
	}
}

// TestPointsIntoMatchesPointInto checks the Block bulk accessor against
// per-element decode on all universe kinds, over aligned and unaligned
// ranges.
func TestPointsIntoMatchesPointInto(t *testing.T) {
	h, _ := NewHypercube(4)
	g, _ := NewLabeledGrid(2, 3, 1.0, 2, 1.0)
	pts, _ := NewPoints([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}})
	prod, _ := NewProduct([][]float64{{-1, 1}, {0, 0.5, 1}, {2, 3}}, "")
	for _, u := range []Block{h, g, pts, prod} {
		d := u.Dim()
		n := u.Size()
		for _, r := range [][2]int{{0, n}, {1, n - 1}, {n / 3, 2*n/3 + 1}, {2, 2}} {
			lo, hi := r[0], r[1]
			buf := make([]float64, (hi-lo)*d)
			u.PointsInto(lo, hi, buf)
			one := make([]float64, d)
			for i := lo; i < hi; i++ {
				want := u.PointInto(i, one)
				got := buf[(i-lo)*d : (i-lo+1)*d]
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s: PointsInto(%d,%d) element %d coord %d = %v, want %v", u, lo, hi, i, j, got[j], want[j])
					}
				}
			}
		}
	}
}

func TestDigitsIntoRoundTrip(t *testing.T) {
	g, _ := NewLabeledGrid(3, 3, 1.0, 2, 1.0)
	prod, _ := NewProduct([][]float64{{-1, 1}, {0, 0.5, 1}, {2, 3}}, "")
	for _, f := range []Factored{g, prod} {
		buf := make([]int, f.Dim())
		pbuf := make([]float64, f.Dim())
		for i := 0; i < f.Size(); i++ {
			digits := DigitsInto(f, i, buf)
			// Digits reconstruct the index (coordinate 0 fastest).
			idx := 0
			stride := 1
			for j, lev := range digits {
				if lev < 0 || lev >= f.Levels(j) {
					t.Fatalf("%s: digit %d of %d out of range: %d", f, j, i, lev)
				}
				idx += lev * stride
				stride *= f.Levels(j)
			}
			if idx != i {
				t.Fatalf("%s: digits of %d reconstruct %d", f, i, idx)
			}
			// CoordValue(j, digit_j) is bit-identical to the point vector.
			p := f.PointInto(i, pbuf)
			for j := range digits {
				if v := f.CoordValue(j, digits[j]); v != p[j] {
					t.Fatalf("%s: CoordValue(%d,%d)=%v but point %d coord %d=%v", f, j, digits[j], v, i, j, p[j])
				}
			}
		}
	}
}

func TestHypercubeFactoredContract(t *testing.T) {
	h, _ := NewHypercube(5)
	buf := make([]int, 5)
	pbuf := make([]float64, 5)
	for i := 0; i < h.Size(); i++ {
		digits := DigitsInto(h, i, buf)
		p := h.PointInto(i, pbuf)
		for j := range digits {
			if v := h.CoordValue(j, digits[j]); v != p[j] {
				t.Fatalf("CoordValue(%d,%d)=%v but point %d coord %d=%v", j, digits[j], v, i, j, p[j])
			}
		}
	}
}

func TestSupportSizeAndIndex(t *testing.T) {
	p, _ := NewProductHypercube(40)
	if _, err := SupportSize(p, []int{0, 1, 2}); err != nil {
		t.Fatalf("small support rejected: %v", err)
	}
	coords := make([]int, 30)
	for i := range coords {
		coords[i] = i
	}
	if _, err := SupportSize(p, coords); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("2^30 support: err = %v, want ErrTooLarge", err)
	}
	// SupportIndex / SupportLevelsInto round-trip.
	g, _ := NewLabeledGrid(4, 3, 1.0, 2, 1.0)
	sc := []int{3, 0, 4} // deliberately unsorted, includes label coord
	size, err := SupportSize(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	if size != 3*3*2 {
		t.Fatalf("support size = %d, want 18", size)
	}
	lbuf := make([]int, len(sc))
	for idx := 0; idx < size; idx++ {
		levels := SupportLevelsInto(g, sc, idx, lbuf)
		if got := SupportIndex(g, sc, levels); got != idx {
			t.Fatalf("support index round-trip: %d -> %v -> %d", idx, levels, got)
		}
	}
}

// TestSupportUniverse checks that the embedded sub-cube enumerates all
// joint support values with non-support coordinates pinned at level 0,
// in SupportIndex order.
func TestSupportUniverse(t *testing.T) {
	p, _ := NewProductHypercube(30)
	coords := []int{2, 17, 29}
	sub, err := SupportUniverse(p, coords)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 8 || sub.Dim() != 30 {
		t.Fatalf("sub size/dim = %d/%d, want 8/30", sub.Size(), sub.Dim())
	}
	lbuf := make([]int, len(coords))
	onSupport := map[int]bool{}
	for _, c := range coords {
		onSupport[c] = true
	}
	for i := 0; i < sub.Size(); i++ {
		pt := sub.Point(i)
		levels := SupportLevelsInto(p, coords, i, lbuf)
		for j := 0; j < 30; j++ {
			want := p.CoordValue(j, 0)
			if onSupport[j] {
				for k, c := range coords {
					if c == j {
						want = p.CoordValue(j, levels[k])
					}
				}
			}
			if pt[j] != want {
				t.Fatalf("sub point %d coord %d = %v, want %v", i, j, pt[j], want)
			}
		}
	}
	// Validation.
	if _, err := SupportUniverse(p, []int{0, 0}); err == nil {
		t.Error("duplicate coord accepted")
	}
	if _, err := SupportUniverse(p, []int{30}); err == nil {
		t.Error("out-of-range coord accepted")
	}
	// Empty support: single baseline point.
	sub0, err := SupportUniverse(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sub0.Size() != 1 {
		t.Fatalf("empty support size = %d, want 1", sub0.Size())
	}
}

// TestNearestFactoredMatchesDense compares the per-coordinate fast path
// against the dense sweep on a small product universe where both run.
func TestNearestFactoredMatchesDense(t *testing.T) {
	prod, _ := NewProduct([][]float64{{-1, 0, 1}, {-0.5, 0.5}, {0, 2}}, "")
	queries := [][]float64{
		{0.2, 0.3, 1.5},
		{-2, -2, -2},
		{1, 0.5, 2},
		{0.5, 0, 1},   // per-coordinate ties
		{-0.5, 0, -1}, // more ties
	}
	for _, v := range queries {
		dense := Nearest(prod, v) // size ≤ DenseLimit → dense sweep
		fast := nearestFactored(prod, v)
		if dense != fast {
			t.Errorf("Nearest(%v): dense %d, factored %d", v, dense, fast)
		}
	}
	// Large universe routes through the factored path without sweeping.
	big, _ := NewProductHypercube(40)
	v := make([]float64, 40)
	for j := range v {
		v[j] = float64(j%3-1) * 0.1
	}
	idx := Nearest(big, v)
	scale := 1 / math.Sqrt(40)
	pt := big.Point(idx)
	for j := range v {
		want := -scale
		if v[j] > 0 {
			want = scale
		}
		// v[j] == 0 ties toward level 0 (−scale).
		if pt[j] != want {
			t.Errorf("large Nearest coord %d = %v, want %v (v=%v)", j, pt[j], want, v[j])
		}
	}
}

func TestEnsureDense(t *testing.T) {
	h, _ := NewHypercube(10)
	if err := EnsureDense(h); err != nil {
		t.Errorf("d=10 hypercube rejected: %v", err)
	}
	big, _ := NewProductHypercube(23)
	err := EnsureDense(big)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("2^23 universe: err = %v, want ErrTooLarge", err)
	}
	if want := "universe too large"; err == nil || !contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestLabeledGridFactoredContract verifies the grid's CoordValue tables
// agree bit-for-bit with its stored flat points.
func TestLabeledGridFactoredContract(t *testing.T) {
	g, _ := NewLabeledGrid(3, 4, 0.7, 3, 1.5)
	buf := make([]int, g.Dim())
	pbuf := make([]float64, g.Dim())
	for i := 0; i < g.Size(); i++ {
		digits := DigitsInto(g, i, buf)
		p := g.PointInto(i, pbuf)
		for j := range digits {
			if v := g.CoordValue(j, digits[j]); v != p[j] {
				t.Fatalf("CoordValue(%d,%d)=%v but point %d coord %d=%v", j, digits[j], v, i, j, p[j])
			}
		}
	}
	if g.Levels(0) != 4 || g.Levels(3) != 3 {
		t.Errorf("Levels = %d/%d, want 4/3", g.Levels(0), g.Levels(3))
	}
}

// MaxProductSize caps Π_j len(factor_j) so that universe sizes always fit
// an int exactly (2^52 keeps every index exactly representable as a
// float64 too, which histogram weights rely on).
const MaxProductSize = 1 << 52

// NewProduct constructs an implicit product universe from per-coordinate
// value lists. Each factor needs ≥ 1 value; the total size must stay ≤
// 2^52. desc is the String() label ("" gets a generic one). NewProduct,
// SupportIndex and MaxProductSize have no caller outside the tests in
// this file.
func NewProduct(factors [][]float64, desc string) (*Product, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("universe: product needs ≥ 1 factor")
	}
	size := 1
	copied := make([][]float64, len(factors))
	for j, f := range factors {
		if len(f) == 0 {
			return nil, fmt.Errorf("universe: factor %d is empty", j)
		}
		if size > MaxProductSize/len(f) {
			return nil, fmt.Errorf("universe: product size exceeds 2^52")
		}
		size *= len(f)
		copied[j] = append([]float64(nil), f...)
	}
	if desc == "" {
		desc = fmt.Sprintf("product d=%d (|X|=%d)", len(factors), size)
	}
	return &Product{factors: copied, size: size, desc: desc}, nil
}

// SupportIndex composes per-coordinate levels (aligned with coords, which
// must be the same slice an enumeration used) into the sub-cube index, with
// coords[0] fastest-varying — the same mixed-radix convention as the full
// universe.
func SupportIndex(f Factored, coords, levels []int) int {
	idx := 0
	stride := 1
	for j, c := range coords {
		idx += levels[j] * stride
		stride *= f.Levels(c)
	}
	return idx
}
