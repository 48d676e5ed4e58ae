package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/sample"
	"repro/internal/universe"
)

// Engine tests: the factored engine must agree with dense to 1e-12 on every
// registry loss kind that declares a support, stay bit-deterministic across
// worker counts, survive snapshot/restore, and handle d = 30 universes the
// dense engine rejects. New picks the engine from |X|; the comparisons force
// factored on a 2^10 cube through newServer.

// hypercubeData builds a deterministic dataset of n rows over the ±1/√d
// product hypercube.
func hypercubeData(t *testing.T, d, n int, seed int64) (*universe.Product, *dataset.Dataset) {
	t.Helper()
	f, err := universe.NewProductHypercube(d)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(seed)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = src.Intn(f.Size())
	}
	data, err := dataset.New(f, rows)
	if err != nil {
		t.Fatal(err)
	}
	return f, data
}

// supportedSpecs covers every registry loss kind with a declared coordinate
// support (halfspace, marginal, parity, positive), several instances each.
func supportedSpecs(t *testing.T, d int) []convex.Spec {
	t.Helper()
	raw := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	w := make([]float64, d)
	w[1], w[4] = 0.8, -0.6
	return []convex.Spec{
		{Kind: "marginal", Params: raw(map[string]any{"coords": []int{0, 2}})},
		{Kind: "marginal", Params: raw(map[string]any{"coords": []int{1, 3, 5}, "signs": []int{1, -1, 1}})},
		{Kind: "parity", Params: raw(map[string]any{"coords": []int{0, 1}})},
		{Kind: "parity", Params: raw(map[string]any{"coords": []int{2, 4, 6}})},
		{Kind: "positive", Params: raw(map[string]any{"coord": 3})},
		{Kind: "positive", Params: raw(map[string]any{"coord": d - 1})},
		{Kind: "halfspace", Params: raw(map[string]any{"w": w, "threshold": 0.05})},
	}
}

func engineConfig() Config {
	return Config{
		Eps: 1, Delta: 1e-6,
		Alpha: 0.05, Beta: 0.05,
		K: 40, S: 1,
		Oracle:  erm.LaplaceLinear{},
		TBudget: 10,
	}
}

// runEngine answers every spec on a fresh server over the 2^10 cube, dense
// or forced factored, and returns the answers (nil entry when the server
// halted first). A positive workers sets GOMAXPROCS, which the server's
// worker count follows, while the server is built.
func runEngine(t *testing.T, factored bool, workers int, seed int64) ([][]float64, *Server) {
	t.Helper()
	f, data := hypercubeData(t, 10, 400, 11)
	if workers > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	}
	srv, err := newServer(engineConfig(), data, sample.New(seed), factored)
	if err != nil {
		t.Fatal(err)
	}
	var answers [][]float64
	for _, spec := range supportedSpecs(t, f.Dim()) {
		l, err := convex.Build(f, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		ans, err := srv.Answer(l)
		if err == ErrHalted {
			answers = append(answers, nil)
			continue
		}
		if err != nil {
			t.Fatalf("%s (factored %v): %v", spec.Kind, factored, err)
		}
		answers = append(answers, ans)
	}
	return answers, srv
}

// TestCrossEngineEquivalence pins the factored engine to the dense engine
// at 1e-12 on every supported registry kind: same dataset, same seed, same
// query sequence.
func TestCrossEngineEquivalence(t *testing.T) {
	dense, dsrv := runEngine(t, false, 0, 7)
	fact, fsrv := runEngine(t, true, 0, 7)
	if len(dense) != len(fact) {
		t.Fatalf("answer counts differ: %d vs %d", len(dense), len(fact))
	}
	for i := range dense {
		if (dense[i] == nil) != (fact[i] == nil) {
			t.Fatalf("query %d: halting behavior diverged (dense %v, factored %v)", i, dense[i], fact[i])
		}
		for j := range dense[i] {
			if math.Abs(dense[i][j]-fact[i][j]) > 1e-12 {
				t.Fatalf("query %d[%d]: dense %v factored %v", i, j, dense[i][j], fact[i][j])
			}
		}
	}
	if dsrv.Updates() != fsrv.Updates() {
		t.Fatalf("update counts diverged: dense %d factored %d", dsrv.Updates(), fsrv.Updates())
	}
	if fsrv.Updates() == 0 {
		t.Fatal("fixture exercised no MW updates — the equivalence check is vacuous")
	}
	if dsrv.EngineName() != EngineDense || fsrv.EngineName() != EngineFactored {
		t.Fatalf("engine names: %q, %q", dsrv.EngineName(), fsrv.EngineName())
	}
}

// TestEngineBitDeterminism requires byte-identical answers for any worker
// count, per engine — the factored path inherits xeval's determinism
// contract.
func TestEngineBitDeterminism(t *testing.T) {
	for _, factored := range []bool{false, true} {
		base, _ := runEngine(t, factored, 1, 13)
		for _, workers := range []int{2, 7} {
			got, _ := runEngine(t, factored, workers, 13)
			if len(got) != len(base) {
				t.Fatalf("factored %v workers=%d: answer count %d != %d", factored, workers, len(got), len(base))
			}
			for i := range base {
				for j := range base[i] {
					if math.Float64bits(base[i][j]) != math.Float64bits(got[i][j]) {
						t.Fatalf("factored %v workers=%d query %d[%d]: %v != %v",
							factored, workers, i, j, got[i][j], base[i][j])
					}
				}
			}
		}
	}
}

// TestFactoredSnapshotRoundTrip interrupts a factored interaction mid-way,
// serializes the snapshot through JSON, restores, and requires the restored
// server to continue bit-identically to the uninterrupted one.
func TestFactoredSnapshotRoundTrip(t *testing.T) {
	f, data := hypercubeData(t, 10, 400, 11)
	cfg := engineConfig()
	specs := supportedSpecs(t, f.Dim())
	cont, err := newServer(cfg, data, sample.New(23), true)
	if err != nil {
		t.Fatal(err)
	}
	half := len(specs) / 2
	for _, spec := range specs[:half] {
		l, err := convex.Build(f, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cont.Answer(l); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := json.Marshal(cont.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.MWF == nil {
		t.Fatal("factored snapshot lost its MWF state through JSON")
	}
	rest, err := Restore(cfg, data, &snap)
	if err != nil {
		t.Fatal(err)
	}
	// Restore follows the snapshot's representation, although New would
	// run this 2^10 cube dense.
	if rest.EngineName() != EngineFactored {
		t.Fatalf("factored snapshot restored under engine %q", rest.EngineName())
	}
	for _, spec := range specs[half:] {
		l, err := convex.Build(f, spec)
		if err != nil {
			t.Fatal(err)
		}
		a, errA := cont.Answer(l)
		b, errB := rest.Answer(l)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: errors diverged: %v vs %v", spec.Kind, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: answers diverged: %v vs %v", spec.Kind, a, b)
		}
	}
	if !reflect.DeepEqual(cont.Snapshot(), rest.Snapshot()) {
		t.Fatal("final snapshots diverged")
	}

	// And a dense snapshot of the same configuration restores dense.
	dsrv, err := New(cfg, data, sample.New(23))
	if err != nil {
		t.Fatal(err)
	}
	drest, err := Restore(cfg, data, dsrv.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if drest.EngineName() != EngineDense {
		t.Fatalf("dense snapshot restored under engine %q", drest.EngineName())
	}
}

// hugeUniverse reports a size past universe.DenseLimit and hides every
// capability of the universe it wraps, Factored included.
type hugeUniverse struct{ universe.Universe }

func (hugeUniverse) Size() int { return universe.DenseLimit + 1 }

// TestEngineResolution covers the engine rule: New runs dense while the
// universe fits the dense limit, factored past it on a product universe,
// and rejects any other universe past it with ErrTooLarge.
func TestEngineResolution(t *testing.T) {
	_, small := hypercubeData(t, 10, 50, 3)
	_, large := hypercubeData(t, 30, 50, 4)

	srv, err := New(engineConfig(), small, sample.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if srv.EngineName() != EngineDense {
		t.Fatalf("2^10: engine %q", srv.EngineName())
	}
	srv, err = New(engineConfig(), large, sample.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if srv.EngineName() != EngineFactored {
		t.Fatalf("2^30: engine %q", srv.EngineName())
	}

	// Past the limit without product structure: typed universe-too-large
	// rejection, not an OOM.
	huge, err := dataset.New(hugeUniverse{small.U}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(engineConfig(), huge, sample.New(1)); !errors.Is(err, universe.ErrTooLarge) {
		t.Fatalf("non-product universe past the limit: %v", err)
	}
	// Dense forced at d = 30 (a dense snapshot restored there): the same.
	if _, err := newServer(engineConfig(), large, sample.New(1), false); !errors.Is(err, universe.ErrTooLarge) {
		t.Fatalf("dense on 2^30: %v", err)
	}

	// Factored forced over a universe without product structure.
	pts, err := universe.NewPoints([][]float64{{0, 0}, {1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	pdata, err := dataset.New(pts, []int{0, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(engineConfig(), pdata, sample.New(1), true); err == nil {
		t.Fatal("factored accepted on explicit points")
	}

	// Trace needs the dense engine: rejected past the limit, and under a
	// forced factored engine.
	cfg := engineConfig()
	cfg.Trace = true
	if _, err := New(cfg, large, sample.New(1)); err == nil {
		t.Fatal("Trace accepted on 2^30")
	}
	if _, err := newServer(cfg, small, sample.New(1), true); err == nil {
		t.Fatal("Trace accepted under the factored engine")
	}

	// A loss without declared support is rejected with the typed error.
	fsrv, err := newServer(engineConfig(), small, sample.New(1), true)
	if err != nil {
		t.Fatal(err)
	}
	q, err := convex.NewLinearQuery("opaque", func(x []float64) float64 {
		if x[0] > 0 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsrv.Answer(q); !errors.Is(err, ErrNeedsSupport) {
		t.Fatalf("unsupported loss: %v", err)
	}
}

// TestFactoredLargeDInteraction runs the whole protocol at d = 30 — far
// past dense materialization — and checks the release surfaces.
func TestFactoredLargeDInteraction(t *testing.T) {
	f, data := hypercubeData(t, 30, 500, 9)
	srv, err := New(engineConfig(), data, sample.New(17))
	if err != nil {
		t.Fatal(err)
	}
	raw := func(v any) json.RawMessage {
		b, _ := json.Marshal(v)
		return b
	}
	for i := 0; i < 8; i++ {
		spec := convex.Spec{Kind: "marginal", Params: raw(map[string]any{"coords": []int{i, i + 10, i + 20}})}
		l, err := convex.Build(f, spec)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := srv.Answer(l)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(ans) != 1 || ans[0] < 0 || ans[0] > 1 {
			t.Fatalf("query %d: answer %v outside [0, 1]", i, ans)
		}
	}
	if h := srv.Hypothesis(); h != nil {
		t.Fatal("Hypothesis materialized a 2^30 universe")
	}
	marg, err := srv.fstate.SupportHistogram([]int{0, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, p := range marg.P {
		mass += p
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Fatalf("support marginal mass %v", mass)
	}
	// The footprint is the hypothesis's materialized junta tables.
	comps, cells := srv.fstate.Export().Comps, 0
	for _, c := range comps {
		cells += len(c.LogW)
	}
	if len(comps) == 0 || cells == 0 || cells > mw30FootprintCap {
		t.Fatalf("factored footprint: %d groups, %d cells", len(comps), cells)
	}
	synth, err := srv.SyntheticRows(sample.New(5), 200)
	if err != nil {
		t.Fatal(err)
	}
	if synth.N() != 200 {
		t.Fatalf("synthetic rows: %d", synth.N())
	}
	for j, r := range synth.Rows {
		if r < 0 || r >= f.Size() {
			t.Fatalf("synthetic row %d = %d outside the universe", j, r)
		}
	}
}

// mw30FootprintCap bounds the d = 30 interaction's materialized cells: the
// memory must track the query supports, not the 2^30 universe.
const mw30FootprintCap = 1 << 12

// ExampleServer_EngineName documents the engine rule: a 2^30 product
// universe is past the dense limit, so New runs it factored.
func ExampleServer_EngineName() {
	f, _ := universe.NewProductHypercube(30)
	src := sample.New(1)
	rows := make([]int, 100)
	for i := range rows {
		rows[i] = src.Intn(f.Size())
	}
	data, _ := dataset.New(f, rows)
	srv, _ := New(Config{
		Eps: 1, Delta: 1e-6, Alpha: 0.05, Beta: 0.05,
		K: 10, S: 1, Oracle: erm.LaplaceLinear{}, TBudget: 5,
	}, data, sample.New(2))
	fmt.Println(srv.EngineName())
	// Output: factored
}
