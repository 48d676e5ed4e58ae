package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/sample"
	"repro/internal/universe"
)

// durableData rebuilds the identical private dataset from a fixed seed —
// what an operator restarting `pmwcm serve` with the same flags does.
func durableData(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := dataset.Skewed(g, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.SampleFrom(sample.New(seed), pop, 50000)
}

// durableManager builds a manager over the fixture dataset, durable over
// openStore(t, loc) unless loc is empty. srcSeed seeds the manager's
// session-source; restored sessions must not depend on it (their noise
// streams come from the store). The optional compactEvery folds session
// logs after that many records; absent or 0 takes the production default
// (256), i.e. effectively no mid-test compaction for short streams.
func durableManager(t *testing.T, loc string, dataSeed, srcSeed int64, defaults SessionParams, compactEvery ...int) *Manager {
	t.Helper()
	cfg := Config{
		Data:     durableData(t, dataSeed),
		Source:   sample.New(srcSeed),
		Defaults: defaults,
	}
	if loc != "" {
		cfg.Store = openStore(t, loc)
	}
	if len(compactEvery) > 0 {
		cfg.CompactEvery = compactEvery[0]
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// openStore opens the store loc names: a remote namespace when loc is an
// http:// URL (see blobStore), a state directory otherwise.
func openStore(t *testing.T, loc string) persist.Backend {
	t.Helper()
	var st persist.Backend
	var err error
	if strings.HasPrefix(loc, "http://") {
		st, err = persist.OpenRemote(loc, persist.RemoteOptions{Backoff: time.Millisecond})
	} else {
		st, err = persist.Open(loc)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// testBlobs is a test blob server's control: the requests it answered,
// and a switch that takes it down.
type testBlobs struct {
	mu   sync.Mutex
	reqs []string // "METHOD /path?query"
	// down makes every request fail with 503, as an unreachable store.
	down atomic.Bool
}

// take returns the requests recorded since the last take.
func (l *testBlobs) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	reqs := l.reqs
	l.reqs = nil
	return reqs
}

// blobStore starts a `pmwcm store`-style blob server over a temp tree and
// returns the URL of one namespace in it, for openStore, plus its control.
func blobStore(t *testing.T) (string, *testBlobs) {
	t.Helper()
	bs, err := persist.NewBlobServer(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &testBlobs{}
	h := bs.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ctl.down.Load() {
			http.Error(w, "store down", http.StatusServiceUnavailable)
			return
		}
		ctl.mu.Lock()
		ctl.reqs = append(ctl.reqs, r.Method+" "+r.URL.RequestURI())
		ctl.mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL + "/v1/stores/r1", ctl
}

// mixedSpecs is a query stream that produces both ⊥ and ⊤ answers.
func mixedSpecs(n int) []convex.Spec {
	specs := make([]convex.Spec, 0, n)
	for i := 0; specs == nil || len(specs) < n; i++ {
		switch i % 3 {
		case 0:
			specs = append(specs, countingSpec(i%2))
		case 1:
			specs = append(specs, convex.Spec{Kind: "squared"})
		default:
			specs = append(specs, convex.Spec{Kind: "logistic", Params: json.RawMessage(`{"temp":0.5}`)})
		}
	}
	return specs
}

// sameResult compares two query results bit-for-bit.
func sameResult(t *testing.T, stage string, a, b *QueryResult) {
	t.Helper()
	if a.Loss != b.Loss || a.Top != b.Top ||
		a.EpsSpent != b.EpsSpent || a.DeltaSpent != b.DeltaSpent || a.RhoSpent != b.RhoSpent ||
		a.EpsRemaining != b.EpsRemaining || a.DeltaRemaining != b.DeltaRemaining ||
		a.QueriesUsed != b.QueriesUsed || a.UpdatesUsed != b.UpdatesUsed {
		t.Fatalf("%s: results differ:\n%+v\n%+v", stage, a, b)
	}
	if len(a.Answer) != len(b.Answer) {
		t.Fatalf("%s: answer lengths %d vs %d", stage, len(a.Answer), len(b.Answer))
	}
	for j := range a.Answer {
		if a.Answer[j] != b.Answer[j] {
			t.Fatalf("%s: answer[%d] = %x, want %x", stage, j, b.Answer[j], a.Answer[j])
		}
	}
}

// TestDurableGoldenContinuation is the acceptance invariant at the service
// layer, per accountant: a session checkpointed mid-stream and recovered
// by a fresh manager (fresh process, same dataset and state directory)
// answers the remaining query sequence bit-identically — answers, ⊥/⊤
// pattern, budget spend, transcript — to an uninterrupted session.
func TestDurableGoldenContinuation(t *testing.T) {
	for _, acct := range []string{"basic", "advanced", "zcdp"} {
		t.Run(acct, func(t *testing.T) {
			defaults := SessionParams{
				Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 12, TBudget: 6,
				Accountant: acct,
			}
			specs := mixedSpecs(12)
			const cut = 5

			// Reference: one uninterrupted in-memory run.
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

			// Durable: same dataset and session-source seed, interrupted at
			// cut by a graceful shutdown.
			dir := t.TempDir()
			m1 := durableManager(t, dir, 1, 9, defaults)
			s1, err := m1.CreateSession(SessionParams{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cut; i++ {
				res, err := s1.Query(specs[i])
				if err != nil {
					t.Fatalf("pre-restart query %d: %v", i, err)
				}
				sameResult(t, "pre-restart", refResults[i], res)
			}
			m1.Shutdown()

			// Restart: a different session-source seed on purpose — the
			// restored stream position must come from the state file alone.
			m2 := durableManager(t, dir, 1, 777, defaults)
			defer m2.Shutdown()
			s2, err := m2.Session(s1.ID())
			if err != nil {
				t.Fatalf("restored session not found: %v", err)
			}
			// Cached repeats never reach the mechanism, so the restored query
			// counter equals the number of non-cached answers before the cut.
			wantUsed := 0
			for i := 0; i < cut; i++ {
				if !refResults[i].Cached {
					wantUsed++
				}
			}
			if got, want := s2.Status(), refSess.Status(); got.QueriesUsed != wantUsed ||
				got.UpdatesUsed > want.UpdatesUsed || got.Accountant != acct {
				t.Fatalf("restored status %+v, want %d queries used", got, wantUsed)
			}
			for i := cut; i < len(specs); i++ {
				res, err := s2.Query(specs[i])
				if err != nil {
					t.Fatalf("post-restart query %d: %v", i, err)
				}
				sameResult(t, "post-restart", refResults[i], res)
			}

			// The audit transcripts of the stitched and uninterrupted runs
			// must be byte-identical (modulo the session ids, which match
			// here because both managers issued s-000001).
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

// TestDurableCrashRecovery drops the manager without Shutdown — a crash —
// and checks recovery resumes from the last ⊤-answer checkpoint with no
// recorded spend lost.
func TestDurableCrashRecovery(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 10, TBudget: 6}
	dir := t.TempDir()
	m1 := durableManager(t, dir, 1, 9, defaults)
	s1, err := m1.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	var tops, lastTopQuery int
	for i, q := range mixedSpecs(8) {
		res, err := s1.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Top {
			tops++
			lastTopQuery = i + 1
		}
	}
	if tops == 0 {
		t.Fatal("fixture produced no ⊤ answers; crash test is vacuous")
	}
	// No Shutdown: m1 is simply abandoned, as in a crash.

	m2 := durableManager(t, dir, 1, 777, defaults)
	defer m2.Shutdown()
	s2, err := m2.Session(s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Status()
	if st.UpdatesUsed != tops {
		t.Fatalf("recovered %d updates, want all %d recorded spends", st.UpdatesUsed, tops)
	}
	// ⊥-only tail past the last ⊤ may be lost, but nothing before it.
	if st.QueriesUsed < lastTopQuery {
		t.Fatalf("recovered %d queries, want ≥ %d (last ⊤ checkpoint)", st.QueriesUsed, lastTopQuery)
	}
	if _, err := s2.Query(countingSpec(0)); err != nil {
		t.Fatalf("recovered session cannot continue: %v", err)
	}
}

// TestRestartDoesNotReuseNoiseStreams pins the root-source fix: the
// manifest records the manager's root noise-stream position, so a session
// created *after* a restart must not receive the noise stream a
// pre-restart session already drew from. Without the fix, the restarted
// manager's source rewinds to its seed and the post-restart session's ⊤
// answers reproduce the pre-restart session's bit-for-bit — correlated
// noise across sessions that no ledger accounts for.
func TestRestartDoesNotReuseNoiseStreams(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.02, K: 6, TBudget: 6}
	stream := mixedSpecs(4)
	run := func(s *Session) []*QueryResult {
		t.Helper()
		out := make([]*QueryResult, len(stream))
		for i, q := range stream {
			res, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}
	tops := func(rs []*QueryResult) []*QueryResult {
		var out []*QueryResult
		for _, r := range rs {
			if r.Top {
				out = append(out, r)
			}
		}
		return out
	}

	dir := t.TempDir()
	m1 := durableManager(t, dir, 1, 9, defaults)
	sA, err := m1.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	resA := run(sA)
	m1.Shutdown()

	// Same flags as an operator restart: identical dataset and seed.
	m2 := durableManager(t, dir, 1, 9, defaults)
	defer m2.Shutdown()
	sB, err := m2.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	resB := run(sB)

	ta, tb := tops(resA), tops(resB)
	if len(ta) == 0 || len(tb) == 0 {
		t.Fatal("fixture produced no ⊤ answers; noise-reuse test is vacuous")
	}
	for i := 0; i < len(ta) && i < len(tb); i++ {
		same := len(ta[i].Answer) == len(tb[i].Answer)
		if same {
			for j := range ta[i].Answer {
				same = same && ta[i].Answer[j] == tb[i].Answer[j]
			}
		}
		if same {
			t.Fatalf("⊤ answer %d identical across pre- and post-restart sessions: noise stream reused (%v)", i, ta[i].Answer)
		}
	}
}

// TestDurableClosedSessionSurvives checks an analyst-closed session stays
// permanently closed across restarts while remaining auditable.
func TestDurableClosedSessionSurvives(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 5, TBudget: 6}
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
	m1.Shutdown()

	m2 := durableManager(t, dir, 1, 777, defaults)
	defer m2.Shutdown()
	s2, err := m2.Session(s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Status().Closed {
		t.Fatal("restored session should be closed")
	}
	if _, err := s2.Query(countingSpec(0)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("query on restored closed session: %v", err)
	}
	if _, err := s2.TranscriptJSON(); err != nil {
		t.Fatalf("transcript read on restored closed session: %v", err)
	}
	if m2.OpenSessions() != 0 {
		t.Fatalf("closed session counted open: %d", m2.OpenSessions())
	}
	// A new session must not reuse the closed session's id.
	s3, err := m2.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	if s3.ID() == s1.ID() {
		t.Fatalf("session id %s reused", s3.ID())
	}
}

// TestRecoverRejectsDrift checks the manifest and state files pin the
// serving configuration: a different dataset or oracle refuses to start,
// and so does an "advanced" ledger whose δ′ is not the configured δ/4.
func TestRecoverRejectsDrift(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 5, TBudget: 6}
	dir := t.TempDir()
	m1 := durableManager(t, dir, 1, 9, defaults)
	s1, err := m1.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	m1.Shutdown()

	// Different dataset seed → different rows → fingerprint mismatch.
	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{
		Data:     durableData(t, 2),
		Source:   sample.New(9),
		Defaults: defaults,
		Store:    st,
	}); err == nil || !strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("dataset drift: %v", err)
	}

	// Different oracle → refused per session.
	oracle, err := OracleByName("laplace-linear", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{
		Data:     durableData(t, 1),
		Source:   sample.New(9),
		Defaults: defaults,
		Oracle:   oracle,
		Store:    st,
	}); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("oracle drift: %v", err)
	}

	// A ledger stored with another δ′ → refused, naming the session.
	rec, err := st.LoadSession(s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	rec.Core.Accountant.DeltaPrime = 1e-8
	if err := st.SaveSession(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{
		Data:     durableData(t, 1),
		Source:   sample.New(9),
		Defaults: defaults,
		Store:    st,
	}); err == nil || !strings.Contains(err.Error(), s1.ID()) || !strings.Contains(err.Error(), "delta_prime") {
		t.Fatalf("delta_prime drift: %v", err)
	}
}

// TestEngineIsNotASessionParam checks that neither the engine nor the
// worker count is a session parameter: the engine follows the data and the
// worker count follows GOMAXPROCS. A create that sends either field is a
// 400 from the strict decoder and opens no session, while a stored params
// document that still carries it (written when it was a session parameter)
// recovers, serves under the engine its snapshot holds, and answers its
// next query.
func TestEngineIsNotASessionParam(t *testing.T) {
	for _, field := range []struct {
		name  string
		value any
	}{{"engine", "factored"}, {"workers", 8}} {
		t.Run(field.name, func(t *testing.T) {
			hm, base := startServer(t)
			var errResp struct {
				Error string `json:"error"`
			}
			if st := doJSON(t, "POST", base+"/v1/sessions", map[string]any{field.name: field.value}, &errResp); st != http.StatusBadRequest || errResp.Error == "" {
				t.Fatalf("create with %s: status %d, %+v", field.name, st, errResp)
			}
			if n := hm.OpenSessions(); n != 0 {
				t.Fatalf("rejected create opened %d sessions", n)
			}

			defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 10, TBudget: 6}
			dir := t.TempDir()
			m1 := durableManager(t, dir, 1, 9, defaults)
			s1, err := m1.CreateSession(SessionParams{})
			if err != nil {
				t.Fatal(err)
			}
			specs := mixedSpecs(4)
			if _, err := s1.Query(specs[0]); err != nil {
				t.Fatal(err)
			}
			m1.Shutdown()

			st, err := persist.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := st.LoadSession(s1.ID())
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(rec.Params, &doc); err != nil {
				t.Fatal(err)
			}
			doc[field.name] = field.value
			if rec.Params, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
			if err := st.SaveSession(rec); err != nil {
				t.Fatal(err)
			}
			m2 := durableManager(t, dir, 1, 9, defaults)
			defer m2.Shutdown()
			s2, err := m2.Session(s1.ID())
			if err != nil {
				t.Fatalf("session with a stored %s field did not recover: %v", field.name, err)
			}
			if got := s2.Status().Engine; got != "dense" {
				t.Fatalf("recovered engine %q, want the snapshot's dense", got)
			}
			if _, err := s2.Query(specs[1]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoverRejectsTamperedLedger corrupts the persisted transcript so it
// disagrees with the accountant ledger and checks recovery refuses the
// session rather than serving on top of an unverifiable spend history.
func TestRecoverRejectsTamperedLedger(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 10, TBudget: 6}
	dir := t.TempDir()
	m1 := durableManager(t, dir, 1, 9, defaults)
	s1, err := m1.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	var sawTop bool
	for _, q := range mixedSpecs(8) {
		res, err := s1.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sawTop = sawTop || res.Top
	}
	if !sawTop {
		t.Fatal("fixture produced no ⊤ answers; tamper test is vacuous")
	}
	m1.Shutdown()

	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.LoadSession(s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec.Transcript.Events {
		if rec.Transcript.Events[i].Top {
			// Erase one recorded spend: the transcript now claims less was
			// released than the ledger (and the MW state) say.
			rec.Transcript.Events[i].Top = false
			break
		}
	}
	if err := st.SaveSession(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{
		Data:     durableData(t, 1),
		Source:   sample.New(9),
		Defaults: defaults,
		Store:    st,
	}); err == nil || !strings.Contains(err.Error(), "⊤") {
		t.Fatalf("tampered ledger accepted: %v", err)
	}
}

// TestSnapshotEndpoint checks the HTTP surface: 200 + {"saved":true} on a
// durable server, 501 on a memory-only one, 404 for unknown sessions.
func TestSnapshotEndpoint(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 5, TBudget: 6}
	dir := t.TempDir()
	m := durableManager(t, dir, 1, 9, defaults)
	defer m.Shutdown()
	h := NewHandler(m)
	s, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sessions/"+s.ID()+"/snapshot", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"saved": true`) {
		t.Fatalf("snapshot on durable server: %d %s", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sessions/nope/snapshot", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("snapshot of unknown session: %d", rr.Code)
	}

	mem := durableManager(t, "", 1, 9, defaults)
	defer mem.Shutdown()
	hm := NewHandler(mem)
	sm, err := mem.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	rr = httptest.NewRecorder()
	hm.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sessions/"+sm.ID()+"/snapshot", nil))
	if rr.Code != http.StatusNotImplemented {
		t.Fatalf("snapshot on memory-only server: %d %s", rr.Code, rr.Body.String())
	}

	// healthz reports durability.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if !strings.Contains(rr.Body.String(), `"durable": true`) {
		t.Fatalf("healthz on durable server: %s", rr.Body.String())
	}
}

// TestStaleForcedSaveDoesNotClobber pins the save-sequencing rule: a
// Checkpoint racing a ⊤ commit never rewinds the snapshot. A snapshot is
// assembled inside the save mutex, so none can land after a newer one;
// overwriting a newer snapshot with an older state would drop a durable
// spend whose answer was already released.
func TestStaleForcedSaveDoesNotClobber(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 40, TBudget: 8}
	m := durableManager(t, t.TempDir(), 1, 9, defaults)
	defer m.Shutdown()
	s, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if _, err := s.Query(distinctSpec(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	last := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		got := len(loadState(t, m, s.ID()).Transcript.Events)
		if got < last {
			t.Fatalf("a checkpoint rewound the snapshot from %d to %d events", last, got)
		}
		last = got
	}
	if last != n {
		t.Fatalf("final checkpoint holds %d events, want %d", last, n)
	}
}
