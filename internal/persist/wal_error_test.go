package persist

// wal_error_test.go drives the WAL's error branches through the fault
// seam: every branch here is one a real disk can take (open refused,
// header write torn, truncate failing mid-heal), and each must surface as
// an error the caller can act on — never a silently half-open WAL.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// faultyStore opens a store over dir with the given plan. The MkdirAll of
// OpenFS is op 0; a fresh OpenWAL is then op 1 (open) and op 2 (header
// write).
func faultyStore(t *testing.T, dir string, plan *fault.Plan) *Store {
	t.Helper()
	st, err := OpenFS(dir, fault.Wrap(fault.OS, plan))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// tearWAL appends garbage after the last clean frame, as a crash
// mid-append would.
func tearWAL(t *testing.T, dir, id string) {
	t.Helper()
	path := filepath.Join(dir, sessionPrefix+id+walSuffix)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{0xFF, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenWALOpenError(t *testing.T) {
	st := faultyStore(t, t.TempDir(), fault.NewPlan(
		fault.Fault{Op: -1, Kind: fault.OpOpen, Mode: fault.ModeErr}))
	if _, err := st.OpenWAL("s-000001"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("OpenWAL under open fault: %v, want injected error", err)
	}
}

func TestOpenWALHeaderWriteError(t *testing.T) {
	st := faultyStore(t, t.TempDir(), fault.NewPlan(
		fault.Fault{Op: -1, Kind: fault.OpWrite, Mode: fault.ModeErr}))
	if _, err := st.OpenWAL("s-000001"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("OpenWAL under header-write fault: %v, want injected error", err)
	}
}

// TestOpenWALHealsTornTail: a torn tail that survived to OpenWAL (no
// LoadWAL first) is truncated there, and a truncate failure during that
// heal refuses the open instead of leaving the cursor mid-frame.
func TestOpenWALHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	tearWAL(t, dir, "s-000001")

	// With a truncate fault the heal must fail loudly.
	bad := faultyStore(t, dir, fault.NewPlan(
		fault.Fault{Op: -1, Kind: fault.OpTruncate, Mode: fault.ModeErr}))
	if _, err := bad.OpenWAL("s-000001"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("OpenWAL over torn tail under truncate fault: %v, want injected error", err)
	}

	// Without it the tail truncates and the clean record survives.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := st2.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Records() != 1 {
		t.Fatalf("healed WAL has %d records, want 1", w2.Records())
	}
}

func TestAppendWriteError(t *testing.T) {
	// Ops: 0 mkdir, 1 open, 2 header write — the fault starts at 3, the
	// first Append.
	st := faultyStore(t, t.TempDir(), fault.NewPlan(
		fault.Fault{Op: -1, Kind: fault.OpWrite, After: 3, Mode: fault.ModeErr}))
	w, err := st.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(walEvent(1)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Append under write fault: %v, want injected error", err)
	}
}

func TestSyncError(t *testing.T) {
	st := faultyStore(t, t.TempDir(), fault.NewPlan(
		fault.Fault{Op: -1, Kind: fault.OpSync, Mode: fault.ModeErr}))
	w, err := st.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(walEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync under sync fault: %v, want injected error", err)
	}
}

// TestSyncFailureIsSticky: after a failed fsync, Linux may report success
// on the next one even though writeback dropped the pages the failed one
// covered, so a file log's Sync keeps failing — without another fsync —
// until a Reset rewrites the log. Ops: 0 mkdir, 1 open, 2 header, 3
// append, 4 the failing sync.
func TestSyncFailureIsSticky(t *testing.T) {
	plan := fault.NewPlan(fault.Fault{Op: 4, Mode: fault.ModeErr})
	st := faultyStore(t, t.TempDir(), plan)
	w, err := st.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(walEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync under sync fault: %v, want injected error", err)
	}
	if err := w.Append(walEvent(2)); err != nil {
		t.Fatal(err)
	}
	ops := plan.Ops()
	if err := w.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync after a failed sync: %v, want the sticky injected error", err)
	}
	if plan.Ops() != ops {
		t.Fatal("a sticky-failed Sync reached the file")
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walEvent(3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync after Reset: %v", err)
	}
	recs, err := st.LoadWAL("s-000001")
	if err != nil || len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("log after healing = %+v, %v", recs, err)
	}
}

// TestResetErrorPaths targets Reset's three fault-reachable failure
// points by exact op index — ops are deterministic, so the indices are
// part of the contract: 0 mkdir, 1 open, 2 header, 3 append, then Reset
// is 4 truncate, 5 header rewrite, 6 sync.
func TestResetErrorPaths(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   int
	}{
		{"truncate", 4},
		{"header-rewrite", 5},
		{"sync", 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := faultyStore(t, t.TempDir(), fault.NewPlan(
				fault.Fault{Op: tc.op, Mode: fault.ModeErr}))
			w, err := st.OpenWAL("s-000001")
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Append(walEvent(1)); err != nil {
				t.Fatal(err)
			}
			if err := w.Reset(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Reset with fault at op %d: %v, want injected error", tc.op, err)
			}
		})
	}
}

// TestLoadWALErrorPaths: open failures that are not "no such file" must
// propagate (a missing WAL is fine, an unreadable one is not), and a torn
// tail whose in-place heal fails must refuse the load.
func TestLoadWALErrorPaths(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	openFault := faultyStore(t, dir, fault.NewPlan(
		fault.Fault{Op: -1, Kind: fault.OpOpen, Mode: fault.ModeErr}))
	if _, err := openFault.LoadWAL("s-000001"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("LoadWAL under open fault: %v, want injected error", err)
	}

	tearWAL(t, dir, "s-000001")
	truncFault := faultyStore(t, dir, fault.NewPlan(
		fault.Fault{Op: -1, Kind: fault.OpTruncate, Mode: fault.ModeErr}))
	if _, err := truncFault.LoadWAL("s-000001"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("LoadWAL over torn tail under truncate fault: %v, want injected error", err)
	}

	syncFault := faultyStore(t, dir, fault.NewPlan(
		fault.Fault{Op: -1, Kind: fault.OpSync, Mode: fault.ModeErr}))
	if _, err := syncFault.LoadWAL("s-000001"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("LoadWAL truncation-sync under sync fault: %v, want injected error", err)
	}

	// The clean store still loads the surviving record after all that.
	recs, err := st.LoadWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
}

func TestRemoveWALError(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	bad := faultyStore(t, dir, fault.NewPlan(
		fault.Fault{Op: -1, Kind: fault.OpRemove, Mode: fault.ModeErr}))
	if err := bad.RemoveWAL("s-000001"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("RemoveWAL under remove fault: %v, want injected error", err)
	}
	// Idempotence on the clean store: first removal deletes, second is a
	// no-op success.
	if err := st.RemoveWAL("s-000001"); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveWAL("s-000001"); err != nil {
		t.Fatal(err)
	}
}

// TestWALInvalidIDs: every WAL entry point must refuse a path-traversal
// session id before touching the filesystem.
func TestWALInvalidIDs(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const evil = "../evil"
	if _, err := st.OpenWAL(evil); err == nil {
		t.Fatal("OpenWAL accepted a traversal id")
	}
	if _, err := st.LoadWAL(evil); err == nil {
		t.Fatal("LoadWAL accepted a traversal id")
	}
	if err := st.RemoveWAL(evil); err == nil {
		t.Fatal("RemoveWAL accepted a traversal id")
	}
}
