package core

import (
	"encoding/json"
	"testing"

	"repro/internal/convex"
	"repro/internal/erm"
	"repro/internal/sample"
)

// snapCycle serializes a server's snapshot through JSON — the same codec
// the persistence layer uses — and restores it into a fresh server.
func snapCycle(t *testing.T, srv *Server, cfg Config) *Server {
	t.Helper()
	raw, err := json.Marshal(srv.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	data := srv.data
	back, err := Restore(cfg, data, &snap)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestSnapshotRestoreBitIdentical is the golden invariant of the
// persistence layer, per accountant: a server snapshotted mid-stream (JSON
// round trip included) and restored answers the remaining query sequence
// bit-identically — same released vectors, same ⊥/⊤ pattern, same budget
// spend and remaining budget, same halt point — as the uninterrupted run.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 60000, 1)
	queries := append(squaredPool(t, g, 5, 3), linearPool(t, g, 5, 9)...)
	for _, acct := range []string{"basic", "advanced", "zcdp"} {
		for _, cut := range []int{1, 4, 7} {
			t.Run(acct, func(t *testing.T) {
				cfg := Config{
					Eps: 1, Delta: 1e-6,
					Alpha: 0.05, Beta: 0.05,
					K: len(queries), S: 2,
					Oracle:     erm.NoisyGD{},
					TBudget:    4,
					Accountant: acct,
				}
				ref, err := New(cfg, data, sample.New(7))
				if err != nil {
					t.Fatal(err)
				}
				cutSrv, err := New(cfg, data, sample.New(7))
				if err != nil {
					t.Fatal(err)
				}

				answer := func(srv *Server, l convex.Loss) ([]float64, error) {
					theta, err := srv.Answer(l)
					if err != nil && err != ErrHalted {
						t.Fatal(err)
					}
					return theta, err
				}
				for i := 0; i < cut; i++ {
					a, err1 := answer(ref, queries[i])
					b, err2 := answer(cutSrv, queries[i])
					if err1 != err2 {
						t.Fatalf("prefix %d: errors %v vs %v", i, err1, err2)
					}
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("prefix %d diverged before the snapshot", i)
						}
					}
				}

				restored := snapCycle(t, cutSrv, cfg)
				if restored.Params() != ref.Params() {
					t.Fatalf("restored params %+v != %+v", restored.Params(), ref.Params())
				}
				for i := cut; i < len(queries); i++ {
					a, err1 := answer(ref, queries[i])
					b, err2 := answer(restored, queries[i])
					if err1 != err2 {
						t.Fatalf("query %d after restore: errors %v vs %v", i, err1, err2)
					}
					if len(a) != len(b) {
						t.Fatalf("query %d after restore: lengths %d vs %d", i, len(a), len(b))
					}
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("query %d[%d] after restore: %x != %x", i, j, b[j], a[j])
						}
					}
				}
				if restored.Privacy() != ref.Privacy() {
					t.Errorf("privacy %+v != %+v", restored.Privacy(), ref.Privacy())
				}
				if restored.Remaining() != ref.Remaining() {
					t.Errorf("remaining %+v != %+v", restored.Remaining(), ref.Remaining())
				}
				if restored.Updates() != ref.Updates() || restored.Answered() != ref.Answered() || restored.Halted() != ref.Halted() {
					t.Errorf("counters %d/%d/%v != %d/%d/%v",
						restored.Updates(), restored.Answered(), restored.Halted(),
						ref.Updates(), ref.Answered(), ref.Halted())
				}
			})
		}
	}
}

// TestRestoreRejectsDrift checks a snapshot cannot be grafted onto a
// different configuration or dataset: the re-derived parameters differ and
// Restore refuses.
func TestRestoreRejectsDrift(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 60000, 1)
	cfg := Config{
		Eps: 1, Delta: 1e-6, Alpha: 0.05, Beta: 0.05,
		K: 6, S: 2, Oracle: erm.NoisyGD{}, TBudget: 4,
	}
	srv, err := New(cfg, data, sample.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range squaredPool(t, g, 2, 3) {
		if _, err := srv.Answer(l); err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.Snapshot()

	if _, err := Restore(cfg, data, snap); err != nil {
		t.Fatalf("faithful restore rejected: %v", err)
	}
	bad := cfg
	bad.Eps = 2
	if _, err := Restore(bad, data, snap); err == nil {
		t.Error("budget drift accepted")
	}
	bad = cfg
	bad.TBudget = 8
	if _, err := Restore(bad, data, snap); err == nil {
		t.Error("horizon drift accepted")
	}
	bad = cfg
	bad.Accountant = "zcdp"
	if _, err := Restore(bad, data, snap); err == nil {
		t.Error("accountant drift accepted")
	}
	otherData := skewedData(t, g, 50000, 2)
	if _, err := Restore(cfg, otherData, snap); err == nil {
		t.Error("dataset-size drift accepted")
	}
	snap2 := *snap
	snap2.Answered = cfg.K + 1
	if _, err := Restore(cfg, data, &snap2); err == nil {
		t.Error("out-of-range answered accepted")
	}
	if _, err := Restore(cfg, data, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

// TestServersShareDatasetHistogram checks that a server built by New and
// one built by Restore over the same dataset read the dataset's own
// histogram — one pointer — rather than building copies of it.
func TestServersShareDatasetHistogram(t *testing.T) {
	g := testGrid(t)
	data := skewedData(t, g, 20000, 1)
	cfg := Config{
		Eps: 1, Delta: 1e-6,
		Alpha: 0.05, Beta: 0.05,
		K: 4, S: 2,
		Oracle:  erm.NoisyGD{},
		TBudget: 4,
	}
	srv, err := New(cfg, data, sample.New(7))
	if err != nil {
		t.Fatal(err)
	}
	back := snapCycle(t, srv, cfg)
	l := squaredPool(t, g, 1, 3)[0]
	for name, s := range map[string]*Server{"New": srv, "Restore": back} {
		v, err := s.viewFor(l)
		if err != nil {
			t.Fatal(err)
		}
		if v.data != data.Histogram() {
			t.Errorf("%s server reads histogram %p, the dataset owns %p", name, v.data, data.Histogram())
		}
	}
}
