package persist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/universe"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	u, err := universe.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.New(u, []int{0, 1, 2, 3, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEnvelopeRoundTrip(t *testing.T) {
	type payload struct {
		X float64 `json:"x"`
	}
	data, err := Encode(FormatManifest, payload{X: 0.1 + 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var back payload
	if err := Decode(data, FormatManifest, &back); err != nil {
		t.Fatal(err)
	}
	if back.X != 0.1+0.2 {
		t.Fatalf("float64 did not round-trip exactly: %x != %x", back.X, 0.1+0.2)
	}
	if err := Decode(data, FormatSession, &back); err == nil {
		t.Error("wrong format accepted")
	}
	// A file from a future schema must be refused.
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env.Version = SchemaVersion + 1
	future, _ := json.Marshal(env)
	if err := Decode(future, FormatManifest, &back); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future schema accepted: %v", err)
	}
	if err := Decode([]byte("{not json"), FormatManifest, &back); err == nil {
		t.Error("garbage accepted")
	}
}

// TestStoreSessionLifecycle runs the session-document contract over both
// transports: list, save, load, idempotent delete, and ids that never
// reach the transport.
func TestStoreSessionLifecycle(t *testing.T) {
	forEachTransport(t, nil, func(t *testing.T, st *Store, _ string) {
		if ids, err := st.Sessions(); err != nil || len(ids) != 0 {
			t.Fatalf("fresh dir sessions = %v, %v", ids, err)
		}
		rec := &SessionState{
			ID:      "s-000001",
			Created: time.Now().UTC().Truncate(time.Second),
			Oracle:  "erm.laplace-linear",
			Params:  json.RawMessage(`{"k":5}`),
		}
		if err := st.SaveSession(rec); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveSession(&SessionState{ID: "s-000002"}); err != nil {
			t.Fatal(err)
		}
		ids, err := st.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 2 || ids[0] != "s-000001" || ids[1] != "s-000002" {
			t.Fatalf("sessions = %v", ids)
		}
		back, err := st.LoadSession("s-000001")
		if err != nil {
			t.Fatal(err)
		}
		var params struct {
			K int `json:"k"`
		}
		if err := json.Unmarshal(back.Params, &params); err != nil {
			t.Fatal(err)
		}
		if back.ID != rec.ID || !back.Created.Equal(rec.Created) || back.Oracle != rec.Oracle || params.K != 5 {
			t.Fatalf("loaded %+v", back)
		}
		if err := st.DeleteSession("s-000002"); err != nil {
			t.Fatal(err)
		}
		if err := st.DeleteSession("s-000002"); err != nil {
			t.Errorf("second delete not idempotent: %v", err)
		}
		if ids, _ := st.Sessions(); len(ids) != 1 {
			t.Fatalf("after delete: %v", ids)
		}
		if _, err := st.LoadSession("s-000002"); err == nil {
			t.Fatal("loaded a deleted session")
		}

		// A session with no log loads as no tail, and removing the absent
		// log succeeds.
		if recs, err := st.LoadWAL("s-000001"); err != nil || recs != nil {
			t.Errorf("LoadWAL = %v, %v", recs, err)
		}
		if err := st.RemoveWAL("s-000001"); err != nil {
			t.Errorf("RemoveWAL = %v", err)
		}

		// Hostile ids never reach the transport.
		if err := st.SaveSession(&SessionState{ID: "../escape"}); err == nil {
			t.Error("hostile save id accepted")
		}
		if _, err := st.LoadSession("../escape"); err == nil {
			t.Error("hostile load id accepted")
		}
		if err := st.DeleteSession(""); err == nil {
			t.Error("empty delete id accepted")
		}
	})
}

func TestStoreRejectsHostileIDs(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../evil", "a/b", "a\\b", ".hidden", strings.Repeat("x", 200)} {
		if err := st.SaveSession(&SessionState{ID: id}); err == nil {
			t.Errorf("id %q accepted", id)
		}
		if _, err := st.LoadSession(id); err == nil {
			t.Errorf("load of id %q accepted", id)
		}
	}
}

func TestManifestRoundTripAndFingerprint(t *testing.T) {
	d := testData(t)
	forEachTransport(t, nil, func(t *testing.T, st *Store, _ string) {
		if m, err := st.LoadManifest(); err != nil || m != nil {
			t.Fatalf("fresh manifest = %+v, %v", m, err)
		}
		want := Manifest{Seq: 7, Dataset: Fingerprint(d)}
		if err := st.SaveManifest(&want); err != nil {
			t.Fatal(err)
		}
		got, err := st.LoadManifest()
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Fatalf("manifest %+v != %+v", *got, want)
		}
	})

	// The fingerprint must be stable and sensitive to rows and universe.
	if Fingerprint(d) != Fingerprint(d) {
		t.Error("fingerprint not deterministic")
	}
	d2, _ := dataset.New(d.U, []int{0, 1, 2, 3, 3, 2, 2})
	if Fingerprint(d) == Fingerprint(d2) {
		t.Error("row change not detected")
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSession(&SessionState{ID: "s-1"}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	// Overwrite must replace, not append/tear.
	if err := st.SaveSession(&SessionState{ID: "s-1", Closed: true}); err != nil {
		t.Fatal(err)
	}
	back, err := st.LoadSession("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if !back.Closed {
		t.Error("overwrite did not take effect")
	}
	if _, err := os.Stat(filepath.Join(dir, "session-s-1.json")); err != nil {
		t.Error("expected session file name session-s-1.json")
	}
}

// TestOpenSweepsStaleTempFiles plants the artifact a crash mid-writeAtomic
// leaves behind — a temp file that was created but never renamed — and
// asserts the next Open deletes it while leaving real state files alone.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSession(&SessionState{ID: "s-1"}); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, ".tmp-1234567890")
	if err := os.WriteFile(stale, []byte("torn checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived reopen: %v", err)
	}
	if _, err := st2.LoadSession("s-1"); err != nil {
		t.Errorf("session file lost to the sweep: %v", err)
	}
	ids, err := st2.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "s-1" {
		t.Errorf("sessions after sweep = %v, want [s-1]", ids)
	}
}

// TestCrashMidWriteAtomicThenSweep drives the real crash path through the
// fault seam: the checkpoint's temp-file write dies (and so does the
// error-path cleanup, as it would with the process), the stale temp stays
// on disk, and a clean reopen sweeps it.
func TestCrashMidWriteAtomicThenSweep(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSession(&SessionState{ID: "s-1"}); err != nil {
		t.Fatal(err)
	}

	// Reopen through an injecting FS that crashes at the temp-file write of
	// the next checkpoint: mkdir(0), create(1), write(2) = crash.
	plan := fault.NewPlan(fault.Fault{Op: 2, Mode: fault.ModeCrash, Bytes: 5})
	ist, err := OpenFS(dir, fault.Wrap(fault.OS, plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := ist.SaveSession(&SessionState{ID: "s-1", Closed: true}); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("checkpoint error = %v, want ErrCrashed", err)
	}
	var stale []string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			stale = append(stale, e.Name())
		}
	}
	if len(stale) != 1 {
		t.Fatalf("crashed checkpoint left %d temp files, want 1: %v", len(stale), stale)
	}

	// Restart: clean FS. The sweep removes the orphan and the pre-crash
	// checkpoint is intact.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("stale temp file %s survived reopen", e.Name())
		}
	}
	back, err := st2.LoadSession("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if back.Closed {
		t.Error("torn checkpoint took effect: session marked closed")
	}
}
