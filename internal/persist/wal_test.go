package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/transcript"
)

// walPath is the file of session id's log in a state-dir store.
func walPath(st *Store, id string) string {
	return filepath.Join(st.Location(), walName(id))
}

// walEvent builds a representative event record for index i.
func walEvent(i int) *WALRecord {
	return &WALRecord{
		Kind: WALEvent,
		Seq:  i,
		Spec: json.RawMessage(fmt.Sprintf(`{"kind":"logistic","params":{"i":%d}}`, i)),
		Event: &transcript.Event{
			Index:    i,
			Query:    "logistic",
			Answer:   []float64{0.125 * float64(i), -0.25},
			Top:      i%2 == 0,
			EpsSpent: 0.01,
			CumEps:   0.01 * float64(i),
			CacheKey: fmt.Sprintf("key-%d", i),
		},
	}
}

func TestWALAppendLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const id = "s-000001"
	w, err := st.OpenWAL(id)
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := 1; i <= n; i++ {
		if err := w.Append(walEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(&WALRecord{Kind: WALClose, Seq: n}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != n+1 {
		t.Fatalf("Records() = %d, want %d", w.Records(), n+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := st.LoadWAL(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n+1 {
		t.Fatalf("loaded %d records, want %d", len(recs), n+1)
	}
	for i := 0; i < n; i++ {
		r := recs[i]
		want := walEvent(i + 1)
		if r.Kind != WALEvent || r.Seq != want.Seq {
			t.Fatalf("record %d = %+v", i, r)
		}
		if r.Event == nil || r.Event.Answer[0] != want.Event.Answer[0] || r.Event.CacheKey != want.Event.CacheKey {
			t.Fatalf("record %d event did not round-trip: %+v", i, r.Event)
		}
		if string(r.Spec) != string(want.Spec) {
			t.Fatalf("record %d spec = %s", i, r.Spec)
		}
	}
	if recs[n].Kind != WALClose {
		t.Fatalf("last record kind = %q", recs[n].Kind)
	}
}

func TestWALLoadMissingIsEmpty(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.LoadWAL("s-000001")
	if err != nil || recs != nil {
		t.Fatalf("missing wal = %v, %v; want nil, nil", recs, err)
	}
	if _, err := os.Stat(walPath(st, "s-000001")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LoadWAL of a missing log created a file: %v", err)
	}
}

// TestWALTornTailTruncation corrupts the last record byte-level (a torn
// write) and checks LoadWAL returns the clean prefix and cuts the log back
// to it on either transport, and that a file log stays appendable.
func TestWALTornTailTruncation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mangle  func(data []byte) []byte
		surviv  int
		wantErr bool
	}{
		// Cut mid-payload: the length field promises more bytes than exist.
		{name: "short-tail", mangle: func(d []byte) []byte { return d[:len(d)-3] }, surviv: 2},
		// Flip a payload byte: the CRC disagrees.
		{name: "bitflip", mangle: func(d []byte) []byte { d[len(d)-2] ^= 0x40; return d }, surviv: 2},
		// Garbage appended after the last good frame.
		{name: "garbage-tail", mangle: func(d []byte) []byte { return append(d, 0xde, 0xad, 0xbe) }, surviv: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachTransport(t, nil, func(t *testing.T, st *Store, dir string) {
				const id = "s-000001"
				w, err := st.OpenWAL(id)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= 3; i++ {
					if err := w.Append(walEvent(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, walName(id))
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
					t.Fatal(err)
				}

				recs, err := st.LoadWAL(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != tc.surviv {
					t.Fatalf("survived %d records, want %d", len(recs), tc.surviv)
				}
				// The tear is gone: the log parses clean to its end, and a
				// re-load sees the same prefix.
				healed, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if _, clean, torn, err := parseWAL(healed, id); err != nil || torn || clean != int64(len(healed)) {
					t.Fatalf("healed log: clean %d of %d bytes, torn %v, %v", clean, len(healed), torn, err)
				}
				if recs, err := st.LoadWAL(id); err != nil || len(recs) != tc.surviv {
					t.Fatalf("re-load = %d records, %v; want %d", len(recs), err, tc.surviv)
				}
				if _, ok := st.t.(*dirTransport); !ok {
					return // a blob log is replaced, not resumed, by OpenWAL
				}
				// A re-opened file log appends on a clean boundary.
				w2, err := st.OpenWAL(id)
				if err != nil {
					t.Fatal(err)
				}
				if w2.Records() != tc.surviv {
					t.Fatalf("reopened Records() = %d, want %d", w2.Records(), tc.surviv)
				}
				if err := w2.Append(walEvent(9)); err != nil {
					t.Fatal(err)
				}
				if err := w2.Sync(); err != nil {
					t.Fatal(err)
				}
				w2.Close()
				recs, err = st.LoadWAL(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != tc.surviv+1 || recs[len(recs)-1].Seq != 9 {
					t.Fatalf("after reopen+append got %d records, last %+v", len(recs), recs[len(recs)-1])
				}
			})
		})
	}
}

func TestWALRefusesForeignHeader(t *testing.T) {
	st, err := Open(t.TempDir())
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
	w.Sync()
	w.Close()
	// Copy the file under another session's name: the header id no longer
	// matches and the file must be refused.
	data, err := os.ReadFile(walPath(st, "s-000001"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(st, "s-000002"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadWAL("s-000002"); err == nil {
		t.Fatal("cross-copied wal accepted")
	}
	if _, err := st.OpenWAL("s-000002"); err == nil {
		t.Fatal("cross-copied wal opened for append")
	}
}

func TestWALResetTruncates(t *testing.T) {
	forEachTransport(t, nil, func(t *testing.T, st *Store, dir string) {
		const id = "s-000001"
		w, err := st.OpenWAL(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 4; i++ {
			if err := w.Append(walEvent(i)); err != nil {
				t.Fatal(err)
			}
		}
		headerBytes := int64(len(headerFrame(id)))
		if err := w.Reset(); err != nil {
			t.Fatal(err)
		}
		if w.Records() != 0 || w.Bytes() != headerBytes {
			t.Fatalf("after reset records=%d bytes=%d, want 0, %d", w.Records(), w.Bytes(), headerBytes)
		}
		// The header survives the reset, so the log is still
		// self-describing and appendable.
		if err := w.Append(walEvent(5)); err != nil {
			t.Fatal(err)
		}
		w.Sync()
		w.Close()
		recs, err := st.LoadWAL(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Seq != 5 {
			t.Fatalf("post-reset load = %+v", recs)
		}
		if err := st.RemoveWAL(id); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, walName(id))); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("RemoveWAL left the file: %v", err)
		}
		if err := st.RemoveWAL(id); err != nil {
			t.Fatalf("RemoveWAL not idempotent: %v", err)
		}
	})
}

// TestWALFilesInvisibleToSessions checks .wal files never surface as
// session ids in directory discovery.
func TestWALFilesInvisibleToSessions(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	ids, err := st.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("wal file surfaced as session: %v", ids)
	}
}
