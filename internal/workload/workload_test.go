package workload

import (
	"math"
	"testing"

	"repro/internal/histogram"
	"repro/internal/sample"
	"repro/internal/universe"
)

func cube(t *testing.T, d int) *universe.Hypercube {
	t.Helper()
	u, err := universe.NewHypercube(d)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestCombinations(t *testing.T) {
	got := combinations(4, 2)
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("combinations[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
	if got := combinations(3, 3); len(got) != 1 {
		t.Errorf("C(3,3) = %d subsets", len(got))
	}
}

func TestMarginalsCountAndUniformAnswers(t *testing.T) {
	u := cube(t, 4)
	qs, err := Marginals(4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// C(4,2)·2² = 24 queries.
	if len(qs) != 24 {
		t.Fatalf("marginal count = %d, want 24", len(qs))
	}
	// On the uniform hypercube every width-2 marginal has answer 1/4.
	h := histogram.Uniform(u)
	for _, q := range qs {
		if got := q.ExactMinimize(h)[0]; math.Abs(got-0.25) > 1e-9 {
			t.Fatalf("%s uniform answer = %v, want 0.25", q.Name(), got)
		}
	}
	// Truncation.
	qs, err = Marginals(4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 5 {
		t.Errorf("truncated count = %d", len(qs))
	}
	if _, err := Marginals(4, 0, 0); err == nil {
		t.Error("w=0 accepted")
	}
	if _, err := Marginals(4, 5, 0); err == nil {
		t.Error("w>d accepted")
	}
}

func TestMarginalsDistinct(t *testing.T) {
	u := cube(t, 3)
	qs, err := Marginals(3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 3·2 = 6 queries; on a point mass they give distinct answer patterns.
	if len(qs) != 6 {
		t.Fatalf("count = %d", len(qs))
	}
	x := u.Point(5)
	var ones int
	for _, q := range qs {
		if q.Predicate(x) == 1 {
			ones++
		}
	}
	// Exactly one sign pattern matches per coordinate → 3 of 6 fire.
	if ones != 3 {
		t.Errorf("%d marginals fired on a single record, want 3", ones)
	}
}

func TestParities(t *testing.T) {
	u := cube(t, 3)
	qs, err := Parities([][]int{{0}, {0, 1}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	h := histogram.Uniform(u)
	// Uniform hypercube: every parity has answer 1/2.
	for _, q := range qs {
		if got := q.ExactMinimize(h)[0]; math.Abs(got-0.5) > 1e-9 {
			t.Errorf("%s uniform answer = %v, want 0.5", q.Name(), got)
		}
	}
	// Parity value check on a concrete record: all-positive point → +1
	// parity everywhere.
	allPos := -1
	for i := 0; i < u.Size(); i++ {
		pos := true
		for _, v := range u.Point(i) {
			if v < 0 {
				pos = false
				break
			}
		}
		if pos {
			allPos = i
			break
		}
	}
	for _, q := range qs {
		if q.Predicate(u.Point(allPos)) != 1 {
			t.Errorf("%s on all-positive record = 0", q.Name())
		}
	}
	if _, err := Parities([][]int{{}}); err == nil {
		t.Error("empty subset accepted")
	}
}

func TestRandomParities(t *testing.T) {
	src := sample.New(1)
	qs, err := RandomParities(src, 5, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 20 {
		t.Fatalf("count = %d", len(qs))
	}
	if _, err := RandomParities(src, 5, 0, 3); err == nil {
		t.Error("maxWidth=0 accepted")
	}
	if _, err := RandomParities(src, 5, 6, 3); err == nil {
		t.Error("maxWidth>d accepted")
	}
}

func TestHalfspaces(t *testing.T) {
	u := cube(t, 4)
	src := sample.New(2)
	qs, err := Halfspaces(src, u, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 15 {
		t.Fatalf("count = %d", len(qs))
	}
	// Predicates are {0,1}-valued over the whole universe.
	for _, q := range qs {
		for i := 0; i < u.Size(); i++ {
			if v := q.Predicate(u.Point(i)); v != 0 && v != 1 {
				t.Fatalf("%s value %v", q.Name(), v)
			}
		}
	}
}

func TestRegressionsAndClassifications(t *testing.T) {
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(3)
	rs, err := Regressions(src, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 7 {
		t.Fatalf("regressions = %d", len(rs))
	}
	// All are 1-Lipschitz by construction.
	for _, l := range rs {
		if l.Lipschitz() > 1+1e-12 {
			t.Errorf("%s Lipschitz = %v", l.Name(), l.Lipschitz())
		}
		if l.Domain().Dim() != 2 {
			t.Errorf("%s domain dim = %d", l.Name(), l.Domain().Dim())
		}
	}
}

func TestAsLosses(t *testing.T) {
	qs, err := Marginals(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ls := AsLosses(qs)
	if len(ls) != 2 {
		t.Fatalf("len = %d", len(ls))
	}
	if ls[0].Name() != qs[0].Name() {
		t.Error("order not preserved")
	}
}
