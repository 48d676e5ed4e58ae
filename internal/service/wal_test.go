package service

// wal_test.go covers the write path at the service layer: golden
// bit-identity of recovery-by-replay per accountant, torn-tail truncation
// after a byte-level corruption, compaction round-trips, the
// checkpoint-vs-group-commit race, close durability (including a close
// record left in a log), and the same write path over a remote store:
// crash recovery and the blob requests each lifecycle step costs.

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/persist"
)

// walFile is the on-disk path of a session's log (mirrors the persist
// layout documented on Store.OpenWAL).
func walFile(dir, id string) string {
	return filepath.Join(dir, "session-"+id+".wal")
}

// TestWALGoldenContinuation is the acceptance invariant for the WAL write
// path, per accountant: a WAL-mode session whose manager is abandoned
// without any shutdown (a crash — the log tail was never folded into a
// snapshot) must, after recovery-by-replay, answer the remaining query
// sequence bit-identically to an uninterrupted in-memory session — answers,
// ⊥/⊤ pattern, budget spend, transcript.
func TestWALGoldenContinuation(t *testing.T) {
	for _, acct := range []string{"basic", "advanced", "zcdp"} {
		t.Run(acct, func(t *testing.T) {
			defaults := SessionParams{
				Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 12, TBudget: 6,
				Accountant: acct,
			}
			specs := mixedSpecs(12)
			const cut = 5

			ref := durableManager(t, "", 1, 9, defaults)
			defer ref.Shutdown()
			refSess, err := ref.CreateSession(SessionParams{})
			if err != nil {
				t.Fatal(err)
			}
			refResults := make([]*QueryResult, len(specs))
			for i, q := range specs {
				if refResults[i], err = refSess.Query(q); err != nil {
					t.Fatalf("reference query %d: %v", i, err)
				}
			}

			dir := t.TempDir()
			m1 := durableManager(t, dir, 1, 9, defaults)
			s1, err := m1.CreateSession(SessionParams{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cut; i++ {
				res, err := s1.Query(specs[i])
				if err != nil {
					t.Fatalf("pre-crash query %d: %v", i, err)
				}
				sameResult(t, "pre-crash", refResults[i], res)
			}
			// No Shutdown: the manager is abandoned with its whole event
			// history still in the log. Recovery must replay it.
			if len(loadState(t, m1, s1.ID()).Transcript.Events) != 0 {
				t.Fatal("fixture compacted before the crash; replay test is vacuous")
			}

			m2 := durableManager(t, dir, 1, 777, defaults)
			defer m2.Shutdown()
			s2, err := m2.Session(s1.ID())
			if err != nil {
				t.Fatalf("recovered session not found: %v", err)
			}
			wantUsed := 0
			for i := 0; i < cut; i++ {
				if !refResults[i].Cached {
					wantUsed++
				}
			}
			if got := s2.Status(); got.QueriesUsed != wantUsed || got.Accountant != acct {
				t.Fatalf("recovered status %+v, want %d queries used", got, wantUsed)
			}
			for i := cut; i < len(specs); i++ {
				res, err := s2.Query(specs[i])
				if err != nil {
					t.Fatalf("post-crash query %d: %v", i, err)
				}
				sameResult(t, "post-crash", refResults[i], res)
			}
			refTr, err := refSess.TranscriptJSON()
			if err != nil {
				t.Fatal(err)
			}
			gotTr, err := s2.TranscriptJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(refTr) != string(gotTr) {
				t.Fatalf("transcripts differ:\n%s\n%s", refTr, gotTr)
			}
		})
	}
}

// TestWALTornTailRecovery corrupts the last bytes of a session's log — a
// torn write at crash — and checks recovery truncates to the clean prefix
// and the session continues from there.
func TestWALTornTailRecovery(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 12, TBudget: 6}
	dir := t.TempDir()
	m1 := durableManager(t, dir, 1, 9, defaults)
	s1, err := m1.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := s1.Query(distinctSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon m1, then tear the tail: cut into the last record's frame.
	path := walFile(dir, s1.ID())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := durableManager(t, dir, 1, 777, defaults)
	defer m2.Shutdown()
	s2, err := m2.Session(s1.ID())
	if err != nil {
		t.Fatalf("recovered session not found: %v", err)
	}
	// Exactly the torn record is gone; the clean prefix survived.
	if got := s2.Status().QueriesUsed; got != n-1 {
		t.Fatalf("recovered %d queries, want %d (clean prefix)", got, n-1)
	}
	if _, err := s2.Query(distinctSpec(n + 1)); err != nil {
		t.Fatalf("recovered session cannot continue: %v", err)
	}
}

// TestWALCompactionRoundTrip drives a session past several compaction
// thresholds and checks (a) the log actually folded into the snapshot
// mid-stream, and (b) a crash after that recovers snapshot + WAL tail into
// a session whose remaining answers are bit-identical to an uninterrupted
// run.
func TestWALCompactionRoundTrip(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 16, TBudget: 6}
	specs := mixedSpecs(16)
	const cut = 12

	ref := durableManager(t, "", 1, 9, defaults)
	defer ref.Shutdown()
	refSess, err := ref.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	refResults := make([]*QueryResult, len(specs))
	for i, q := range specs {
		if refResults[i], err = refSess.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	m1 := durableManager(t, dir, 1, 9, defaults, 3)
	s1, err := m1.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		if _, err := s1.Query(specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	snapEvents := len(loadState(t, m1, s1.ID()).Transcript.Events)
	if snapEvents == 0 {
		t.Fatal("no compaction happened; round-trip test is vacuous")
	}
	// Crash: snapshot holds a prefix, the log holds the tail past it.

	m2 := durableManager(t, dir, 1, 777, defaults, 3)
	defer m2.Shutdown()
	s2, err := m2.Session(s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	for i := cut; i < len(specs); i++ {
		res, err := s2.Query(specs[i])
		if err != nil {
			t.Fatalf("post-crash query %d: %v", i, err)
		}
		sameResult(t, "post-compaction-crash", refResults[i], res)
	}
}

// TestWALCheckpointRaceNoDoubleCommit is the regression test for the
// checkpoint-vs-group-commit race: forced Checkpoint calls interleaved
// with live queries must never re-append records the snapshot already
// holds or commit a record twice. The log must stay a strictly increasing
// run of sequence numbers, and recovery must see every answered query.
func TestWALCheckpointRaceNoDoubleCommit(t *testing.T) {
	defaults := SessionParams{Eps: 2, Delta: 1e-6, Alpha: 0.1, K: 40, TBudget: 8}
	dir := t.TempDir()
	m1 := durableManager(t, dir, 1, 9, defaults)
	s1, err := m1.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Hammer forced checkpoints while the query loop runs: each one
		// compacts the log and must clear the pending queue it absorbed.
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if err := s1.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < n; i++ {
		if _, err := s1.Query(distinctSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	// Abandon m1 and inspect the files directly.
	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.LoadWAL(s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for _, r := range recs {
		if r.Seq <= last {
			t.Fatalf("wal sequence not strictly increasing: %d after %d (double commit)", r.Seq, last)
		}
		last = r.Seq
	}

	m2 := durableManager(t, dir, 1, 777, defaults)
	defer m2.Shutdown()
	s2, err := m2.Session(s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Status().QueriesUsed; got != n {
		t.Fatalf("recovered %d queries, want %d", got, n)
	}
}

// TestWALCloseDurability checks closing a session folds its state into the
// snapshot and removes its log, persists closedness across a crash, and that a close
// record left in a log (final compaction never ran) still closes the
// session at recovery.
func TestWALCloseDurability(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 8, TBudget: 6}
	dir := t.TempDir()
	m1 := durableManager(t, dir, 1, 9, defaults)
	s1, err := m1.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Query(countingSpec(0)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(walFile(dir, s1.ID())); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("close left the wal behind: %v", err)
	}

	// Second session: closed purely via a close record, as when the final
	// compaction never made it to disk.
	s2, err := m1.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Query(countingSpec(0)); err != nil {
		t.Fatal(err)
	}
	events := len(loadState(t, m1, s2.ID()).Transcript.Events)
	// Abandon m1 and splice a close record onto s2's log.
	w, err := m1.cfg.Store.OpenWAL(s2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&persist.WALRecord{Kind: persist.WALClose, Seq: events}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	m2 := durableManager(t, dir, 1, 777, defaults)
	defer m2.Shutdown()
	for _, id := range []string{s1.ID(), s2.ID()} {
		s, err := m2.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Status().Closed {
			t.Fatalf("session %s not closed after recovery", id)
		}
		if _, err := s.Query(countingSpec(1)); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("query on recovered closed session %s: %v", id, err)
		}
	}
	if m2.OpenSessions() != 0 {
		t.Fatalf("open sessions after recovery = %d, want 0", m2.OpenSessions())
	}
}

// TestWALRequiresStore checks the healthz surface of the write path: a
// durable manager reports its log, over either backend, and a memory-only
// one has none.
func TestWALRequiresStore(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 5, TBudget: 6}
	blobURL, _ := blobStore(t)
	for _, tc := range []struct {
		loc  string
		want bool
	}{{"", false}, {t.TempDir(), true}, {blobURL, true}} {
		m := durableManager(t, tc.loc, 1, 9, defaults)
		rr := httptest.NewRecorder()
		NewHandler(m).ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
		m.Shutdown()
		if got := strings.Contains(rr.Body.String(), `"wal": true`); got != tc.want {
			t.Fatalf("store %q: healthz reports wal=%v, want %v: %s", tc.loc, got, tc.want, rr.Body.String())
		}
	}
}

// TestWALCommitCompactionHammer is the -race stress for the commit path:
// several sessions drive queries (appends + group commits) while a
// per-session goroutine hammers forced checkpoints, with CompactEvery=2 so
// compaction — snapshot rewrite plus WAL truncate-and-reheader — fires on
// nearly every commit, all through one shared group committer. The
// sessions must answer every query, and a post-abandon recovery must
// restore each with its full ledger.
func TestWALCommitCompactionHammer(t *testing.T) {
	defaults := SessionParams{Eps: 2, Delta: 1e-6, Alpha: 0.1, K: 60, TBudget: 8}
	dir := t.TempDir()
	m1 := durableManager(t, dir, 1, 9, defaults, 2)

	const nSess, n = 3, 16
	sessions := make([]*Session, nSess)
	var err error
	for i := range sessions {
		if sessions[i], err = m1.CreateSession(SessionParams{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, s := range sessions {
		done := make(chan struct{})
		wg.Add(2)
		go func(s *Session) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					if err := s.Checkpoint(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(s)
		go func(s *Session) {
			defer wg.Done()
			defer close(done)
			for i := 0; i < n; i++ {
				if _, err := s.Query(distinctSpec(i)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.TranscriptJSON(); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Abandon m1 (no shutdown: a crash) and recover.
	m2 := durableManager(t, dir, 1, 10, defaults, 2)
	defer m2.Shutdown()
	for _, s := range sessions {
		r, err := m2.Session(s.ID())
		if err != nil {
			t.Fatalf("session %s not recovered: %v", s.ID(), err)
		}
		if got := r.Status().QueriesUsed; got != n {
			t.Errorf("session %s recovered with %d queries, want %d", s.ID(), got, n)
		}
	}
}

// TestRemoteCrashContinuation is the crash test over a remote store: a
// session answers up to a ⊤, its manager is abandoned without Shutdown,
// and a new manager over the same namespace replays the log blob and
// continues bit-identically to an uninterrupted in-memory run. (The crash
// comes right after a ⊤ commit: a remote log buffers ⊥ records in memory
// until the next commit, so a crash later would lose that ⊥-only tail.)
func TestRemoteCrashContinuation(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 12, TBudget: 6}
	specs := mixedSpecs(12)

	ref := durableManager(t, "", 1, 9, defaults)
	defer ref.Shutdown()
	refSess, err := ref.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	refResults := make([]*QueryResult, len(specs))
	for i, q := range specs {
		if refResults[i], err = refSess.Query(q); err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
	}

	cut := 0 // one past the last ⊤ answered before the crash
	for i := 0; i < len(specs)-2; i++ {
		if refResults[i].Top {
			cut = i + 1
		}
	}

	url, _ := blobStore(t)
	m1 := durableManager(t, url, 1, 9, defaults)
	s1, err := m1.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		res, err := s1.Query(specs[i])
		if err != nil {
			t.Fatalf("pre-crash query %d: %v", i, err)
		}
		sameResult(t, "pre-crash", refResults[i], res)
	}
	if cut == 0 || len(loadState(t, m1, s1.ID()).Transcript.Events) != 0 {
		t.Fatal("fixture has no ⊤ or compacted before the crash; replay test is vacuous")
	}

	m2 := durableManager(t, url, 1, 777, defaults)
	defer m2.Shutdown()
	s2, err := m2.Session(s1.ID())
	if err != nil {
		t.Fatalf("recovered session not found: %v", err)
	}
	for i := cut; i < len(specs); i++ {
		res, err := s2.Query(specs[i])
		if err != nil {
			t.Fatalf("post-crash query %d: %v", i, err)
		}
		sameResult(t, "post-crash", refResults[i], res)
	}
	refTr, err := refSess.TranscriptJSON()
	if err != nil {
		t.Fatal(err)
	}
	gotTr, err := s2.TranscriptJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(refTr) != string(gotTr) {
		t.Fatalf("transcripts differ:\n%s\n%s", refTr, gotTr)
	}
}

// TestRemoteRequestCounts pins what each lifecycle step costs in blob
// requests on the session's own blobs (the manifest write that issues an
// id is not counted): creation writes the snapshot, a ⊤ commit is one log
// append — the first replaces the log blob, later ones append to it —
// eviction and close each fold into the snapshot and delete the log, and a
// page-in reads snapshot and log.
func TestRemoteRequestCounts(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 40, TBudget: 8}
	url, blobs := blobStore(t)
	m := durableManager(t, url, 1, 9, defaults)
	defer m.Shutdown()
	sessionReqs := func() []string {
		var out []string
		for _, r := range blobs.take() {
			if strings.Contains(r, "/blobs/session-") {
				out = append(out, r)
			}
		}
		return out
	}
	expect := func(step string, reqs []string, want ...string) {
		t.Helper()
		if len(reqs) != len(want) {
			t.Fatalf("%s made %d requests %q, want %d", step, len(reqs), reqs, len(want))
		}
		for i, w := range want {
			if !strings.HasPrefix(reqs[i], w) {
				t.Fatalf("%s request %d = %q, want %s …", step, i, reqs[i], w)
			}
		}
	}

	s, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	snap, log := "/v1/stores/r1/blobs/session-"+id+".json", "/v1/stores/r1/blobs/session-"+id+".wal"
	expect("create", sessionReqs(), "PUT "+snap)

	// queryTop answers distinct queries until one is ⊤ and returns the
	// requests that cost (⊥ answers buffer their records: no request).
	next := 0
	queryTop := func() []string {
		t.Helper()
		for ; next < 40; next++ {
			res, err := m.Query(id, distinctSpec(next))
			if err != nil {
				t.Fatal(err)
			}
			if res.Top {
				next++
				return sessionReqs()
			}
			if reqs := sessionReqs(); len(reqs) != 0 {
				t.Fatalf("a ⊥ answer made requests %q", reqs)
			}
		}
		t.Fatal("no ⊤ answer in the query stream")
		return nil
	}
	expect("first ⊤ commit", queryTop(), "PUT "+log)
	expect("second ⊤ commit", queryTop(), "POST "+log+"?at=")
	if err := m.Evict(id); err != nil {
		t.Fatal(err)
	}
	expect("eviction", sessionReqs(), "PUT "+snap, "DELETE "+log)
	if _, err := m.SessionStatus(id); err != nil {
		t.Fatal(err)
	}
	expect("page-in", sessionReqs(), "GET "+snap, "GET "+log)
	expect("⊤ commit after page-in", queryTop(), "PUT "+log)
	if err := m.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	expect("close", sessionReqs(), "PUT "+snap, "DELETE "+log)
}
