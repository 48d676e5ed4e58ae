package mw

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/sample"
	"repro/internal/universe"
)

// Components returns the number of materialized junta components and the
// total number of table cells across them — the memory footprint the
// factored representation actually pays for.
func (st *FactoredState) Components() (groups, cells int) {
	for _, c := range st.comps {
		cells += len(c.logW)
	}
	return len(st.comps), cells
}

// expandSupport embeds a support-indexed penalty into a full-universe
// vector, the bridge between FactoredState.Update and State.Update.
func expandSupport(f universe.Factored, coords []int, u []float64) []float64 {
	full := make([]float64, f.Size())
	buf := make([]int, f.Dim())
	for i := range full {
		full[i] = u[universe.ProjectIndex(f, coords, i, buf)]
	}
	return full
}

// juntaUpdates is a fixed mixed workload: disjoint supports, then
// overlapping ones that force merges, with deterministic penalty values
// in [−S, S].
func juntaUpdates(f universe.Factored, s float64) []struct {
	coords []int
	u      []float64
} {
	specs := [][]int{{0, 2}, {1}, {3, 4}, {2, 3}, {0, 5, 6}, {6}}
	out := make([]struct {
		coords []int
		u      []float64
	}, len(specs))
	for k, coords := range specs {
		n := 1
		for _, c := range coords {
			n *= f.Levels(c)
		}
		u := make([]float64, n)
		for i := range u {
			u[i] = s * math.Sin(float64(3*k+1)*float64(i+1))
		}
		out[k] = struct {
			coords []int
			u      []float64
		}{coords, u}
	}
	return out
}

// TestFactoredMatchesDense drives the dense and factored states through
// the same junta update sequence and compares the materialized hypotheses.
func TestFactoredMatchesDense(t *testing.T) {
	f, err := universe.NewProductHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	const s = 2.0
	eta := Eta(s, 12, f.Size())
	dense, err := New(f, eta, s)
	if err != nil {
		t.Fatal(err)
	}
	fact, err := NewFactored(f, eta, s)
	if err != nil {
		t.Fatal(err)
	}
	for k, up := range juntaUpdates(f, s) {
		if err := dense.Update(expandSupport(f, up.coords, up.u)); err != nil {
			t.Fatalf("dense update %d: %v", k, err)
		}
		if err := fact.Update(up.coords, up.u); err != nil {
			t.Fatalf("factored update %d: %v", k, err)
		}
	}
	hd := dense.Histogram()
	hf, err := fact.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	for i := range hd.P {
		if math.Abs(hd.P[i]-hf.P[i]) > 1e-12 {
			t.Fatalf("P[%d]: dense %v factored %v", i, hd.P[i], hf.P[i])
		}
	}
	if got := fact.Updates(); got != dense.Updates() {
		t.Fatalf("update counts differ: %d vs %d", got, dense.Updates())
	}
}

// TestFactoredSupportHistogram checks the product-form marginal against
// brute-force marginalization of the dense hypothesis, including supports
// spanning several components and untouched coordinates.
func TestFactoredSupportHistogram(t *testing.T) {
	f, err := universe.NewProductHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	const s = 2.0
	eta := Eta(s, 12, f.Size())
	dense, _ := New(f, eta, s)
	fact, _ := NewFactored(f, eta, s)
	for _, up := range juntaUpdates(f, s) {
		if err := dense.Update(expandSupport(f, up.coords, up.u)); err != nil {
			t.Fatal(err)
		}
		if err := fact.Update(up.coords, up.u); err != nil {
			t.Fatal(err)
		}
	}
	hd := dense.Histogram()
	buf := make([]int, f.Dim())
	for _, coords := range [][]int{{0}, {7}, {2, 5}, {4, 0, 7}, {1, 3, 6}} {
		hf, err := fact.SupportHistogram(coords)
		if err != nil {
			t.Fatalf("support %v: %v", coords, err)
		}
		n := 1
		for _, c := range coords {
			n *= f.Levels(c)
		}
		want := make([]float64, n)
		for i, p := range hd.P {
			want[universe.ProjectIndex(f, coords, i, buf)] += p
		}
		var total float64
		for i := range want {
			if math.Abs(hf.P[i]-want[i]) > 1e-12 {
				t.Fatalf("support %v cell %d: got %v want %v", coords, i, hf.P[i], want[i])
			}
			total += hf.P[i]
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("support %v: total mass %v", coords, total)
		}
		if hf.U.Size() != n {
			t.Fatalf("support %v: universe size %d want %d", coords, hf.U.Size(), n)
		}
	}
}

// TestFactoredMergeAccounting checks component growth and merge behavior.
func TestFactoredMergeAccounting(t *testing.T) {
	f, err := universe.NewProductHypercube(10)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := NewFactored(f, 0.5, 1)
	upd := func(coords ...int) {
		t.Helper()
		u := make([]float64, 1<<len(coords))
		for i := range u {
			u[i] = 0.25
		}
		if err := st.Update(coords, u); err != nil {
			t.Fatal(err)
		}
	}
	upd(0, 1)
	upd(3, 4)
	if g, c := st.Components(); g != 2 || c != 8 {
		t.Fatalf("after disjoint updates: %d groups %d cells", g, c)
	}
	upd(1, 3) // chains both components into {0,1,3,4}
	if g, c := st.Components(); g != 1 || c != 16 {
		t.Fatalf("after chaining update: %d groups %d cells", g, c)
	}
}

// TestFactoredComponentCap checks that an over-large merge is rejected
// with the typed error and leaves the state untouched.
func TestFactoredComponentCap(t *testing.T) {
	f, err := universe.NewProductHypercube(30)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := NewFactored(f, 0.5, 1)
	small := []float64{0.5, -0.5}
	if err := st.Update([]int{0}, small); err != nil {
		t.Fatal(err)
	}
	before := st.Export()

	coords := make([]int, 21) // 2^21 cells > MaxComponentCells
	u := make([]float64, 1<<21)
	for i := range coords {
		coords[i] = i
	}
	err = st.Update(coords, u)
	if !errors.Is(err, ErrComponentTooLarge) {
		t.Fatalf("want ErrComponentTooLarge, got %v", err)
	}
	if !reflect.DeepEqual(before, st.Export()) {
		t.Fatal("failed update mutated the state")
	}
}

// TestFactoredUpdateValidation exercises the rejection paths.
func TestFactoredUpdateValidation(t *testing.T) {
	f, err := universe.NewProductHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := NewFactored(f, 0.5, 1)
	before := st.Export()
	cases := []struct {
		name   string
		coords []int
		u      []float64
	}{
		{"out of range", []int{6}, []float64{0, 0}},
		{"negative", []int{-1}, []float64{0, 0}},
		{"duplicate", []int{2, 2}, []float64{0, 0, 0, 0}},
		{"wrong length", []int{1}, []float64{0, 0, 0}},
		{"too large", []int{1}, []float64{0, 1.5}},
		{"nan", []int{1}, []float64{0, math.NaN()}},
	}
	for _, c := range cases {
		if err := st.Update(c.coords, c.u); err == nil {
			t.Errorf("%s: update accepted", c.name)
		}
	}
	if !reflect.DeepEqual(before, st.Export()) {
		t.Fatal("rejected updates mutated the state")
	}
	if _, err := NewFactored(f, 0, 1); err == nil {
		t.Error("zero eta accepted")
	}
	if _, err := NewFactored(f, 0.5, math.Inf(1)); err == nil {
		t.Error("infinite scale accepted")
	}
}

// TestFactoredExportRoundTrip checks that a restored state behaves
// bit-identically to the original.
func TestFactoredExportRoundTrip(t *testing.T) {
	f, err := universe.NewProductHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	const s = 2.0
	st, _ := NewFactored(f, 0.7, s)
	ups := juntaUpdates(f, s)
	for _, up := range ups[:4] {
		if err := st.Update(up.coords, up.u); err != nil {
			t.Fatal(err)
		}
	}
	re, err := FactoredFromExport(f, st.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups[4:] {
		if err := st.Update(up.coords, up.u); err != nil {
			t.Fatal(err)
		}
		if err := re.Update(up.coords, up.u); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(st.Export(), re.Export()) {
		t.Fatal("restored state diverged from original")
	}

	// Invalid snapshots are rejected.
	bad := []FactoredExport{
		{Eta: 0.7, Scale: s, Updates: -1},
		{Eta: 0.7, Scale: s, Comps: []FactoredComponent{{Coords: []int{9}, LogW: []float64{0, 0}}}},
		{Eta: 0.7, Scale: s, Comps: []FactoredComponent{{Coords: []int{1, 0}, LogW: []float64{0, 0, 0, 0}}}},
		{Eta: 0.7, Scale: s, Comps: []FactoredComponent{{Coords: []int{1}, LogW: []float64{0}}}},
		{Eta: 0.7, Scale: s, Comps: []FactoredComponent{{Coords: []int{1}, LogW: []float64{0, math.NaN()}}}},
		{Eta: 0.7, Scale: s, Comps: []FactoredComponent{
			{Coords: []int{1}, LogW: []float64{0, 0}},
			{Coords: []int{1}, LogW: []float64{0, 0}},
		}},
	}
	for i, ex := range bad {
		if _, err := FactoredFromExport(f, ex); err == nil {
			t.Errorf("bad snapshot %d accepted", i)
		}
	}
}

// TestFactoredSampleRows checks determinism, range, and that samples track
// a strongly biased component.
func TestFactoredSampleRows(t *testing.T) {
	f, err := universe.NewProductHypercube(12)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := NewFactored(f, 1, 4)
	// Push coordinate 3 hard toward level 1 (positive sign): penalty −4 on
	// level 1, +4 on level 0 ⇒ weight ratio e^8.
	if err := st.Update([]int{3}, []float64{4, -4}); err != nil {
		t.Fatal(err)
	}
	rows := st.SampleRows(sample.New(42), 2000)
	again := st.SampleRows(sample.New(42), 2000)
	if !reflect.DeepEqual(rows, again) {
		t.Fatal("sampling is not deterministic for a fixed seed")
	}
	ones := 0
	for _, r := range rows {
		if r < 0 || r >= f.Size() {
			t.Fatalf("row %d outside universe", r)
		}
		if r>>3&1 == 1 {
			ones++
		}
	}
	if frac := float64(ones) / float64(len(rows)); frac < 0.99 {
		t.Fatalf("biased coordinate sampled positive only %.3f of the time", frac)
	}
}

// TestFactoredLargeD runs the factored state at d = 30 — far past dense
// materialization — and checks marginals and sampling stay cheap and exact.
func TestFactoredLargeD(t *testing.T) {
	f, err := universe.NewProductHypercube(30)
	if err != nil {
		t.Fatal(err)
	}
	const s = 2.0
	eta := Eta(s, 20, f.Size())
	st, err := NewFactored(f, eta, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range juntaUpdates(f, s) {
		if err := st.Update(up.coords, up.u); err != nil {
			t.Fatal(err)
		}
	}
	h, err := st.SupportHistogram([]int{0, 2, 29})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range h.P {
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("marginal mass %v", total)
	}
	if _, err := st.Histogram(); err == nil {
		t.Fatal("dense materialization at d=30 should be rejected")
	}
	rows := st.SampleRows(sample.New(7), 100)
	for _, r := range rows {
		if r < 0 || r >= f.Size() {
			t.Fatalf("row %d outside universe", r)
		}
	}
}
