package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/sample"
	"repro/internal/universe"
)

// testManager builds a manager over a small skewed dataset. The defaults
// keep sessions cheap (tiny T horizon, small K) so tests run fast.
func testManager(t *testing.T, limits Limits) *Manager {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(7)
	pop, err := dataset.Skewed(g, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.SampleFrom(src.Split(), pop, 50000)
	m, err := New(Config{
		Data:   data,
		Source: src.Split(),
		Defaults: SessionParams{
			Eps: 1, Delta: 1e-6, Alpha: 0.02, K: 10, TBudget: 8,
		},
		Limits: limits,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func countingSpec(coord int) convex.Spec {
	return convex.Spec{
		Kind:   "positive",
		Params: json.RawMessage(fmt.Sprintf(`{"coord":%d}`, coord)),
	}
}

// distinctSpec returns a cheap linear query whose canonical key is unique
// per i — for tests that must drive the mechanism on every call, now that
// repeats of one spec are served from the session answer cache.
func distinctSpec(i int) convex.Spec {
	return convex.Spec{
		Kind:   "halfspace",
		Params: json.RawMessage(fmt.Sprintf(`{"w":[1,0,0],"threshold":%g}`, 0.001*float64(i+1))),
	}
}

func TestSessionLifecycle(t *testing.T) {
	m := testManager(t, Limits{})
	s, err := m.CreateSession(SessionParams{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.OpenSessions() != 1 {
		t.Fatalf("open sessions = %d, want 1", m.OpenSessions())
	}

	res, err := s.Query(countingSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer) != 1 || res.Answer[0] < 0 || res.Answer[0] > 1 {
		t.Fatalf("counting answer %v outside [0, 1]", res.Answer)
	}
	if res.QueriesUsed != 1 || res.QueriesMax != 5 {
		t.Fatalf("ledger %d/%d, want 1/5", res.QueriesUsed, res.QueriesMax)
	}

	st := s.Status()
	if st.QueriesUsed != 1 || st.Closed || st.Exhausted {
		t.Fatalf("status = %+v, want 1 used, open, not exhausted", st)
	}
	if st.EpsBudget != 1 || st.EpsSpent <= 0 || st.EpsSpent > st.EpsBudget {
		t.Fatalf("privacy ledger eps spent %v of budget %v", st.EpsSpent, st.EpsBudget)
	}

	// Lookup by id returns the same session.
	got, err := m.Session(s.ID())
	if err != nil || got != s {
		t.Fatalf("Session(%q) = %v, %v", s.ID(), got, err)
	}
	if _, err := m.Session("s-999999"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("unknown id error = %v, want ErrSessionNotFound", err)
	}

	// Close, then verify queries are rejected but reads still work.
	if err := m.CloseSession(s.ID()); err != nil {
		t.Fatal(err)
	}
	if m.OpenSessions() != 0 {
		t.Fatalf("open sessions after close = %d, want 0", m.OpenSessions())
	}
	if _, err := s.Query(countingSpec(0)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("query after close error = %v, want ErrSessionClosed", err)
	}
	if err := m.CloseSession(s.ID()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("double close error = %v, want ErrSessionClosed", err)
	}
	if !s.Status().Closed {
		t.Fatal("status after close does not report closed")
	}
	if _, err := s.TranscriptJSON(); err != nil {
		t.Fatalf("transcript after close: %v", err)
	}
}

// Closing through the Session handle (not Manager.CloseSession) must free
// the manager's slot too — otherwise in-process callers leak capacity.
func TestDirectCloseFreesSlot(t *testing.T) {
	m := testManager(t, Limits{MaxSessions: 1})
	s, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateSession(SessionParams{}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("create at limit error = %v, want ErrTooManySessions", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m.OpenSessions() != 0 {
		t.Fatalf("open sessions after direct close = %d, want 0", m.OpenSessions())
	}
	if _, err := m.CreateSession(SessionParams{}); err != nil {
		t.Fatalf("create after direct close: %v", err)
	}
	// Manager-side close of the already-closed session must not
	// double-free the slot.
	if err := m.CloseSession(s.ID()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("manager close after direct close error = %v, want ErrSessionClosed", err)
	}
	if m.OpenSessions() != 1 {
		t.Fatalf("open sessions = %d, want 1 (no double free)", m.OpenSessions())
	}
}

// Closed sessions stay readable only up to the retention cap; beyond it the
// oldest are evicted so create/close churn cannot grow memory unboundedly.
func TestClosedSessionRetention(t *testing.T) {
	m := testManager(t, Limits{RetainClosed: 2})
	ids := make([]string, 4)
	for i := range ids {
		s, err := m.CreateSession(SessionParams{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The two oldest closed sessions are gone; the two newest remain.
	for _, id := range ids[:2] {
		if _, err := m.Session(id); !errors.Is(err, ErrSessionNotFound) {
			t.Fatalf("evicted session %s lookup error = %v, want ErrSessionNotFound", id, err)
		}
	}
	for _, id := range ids[2:] {
		s, err := m.Session(id)
		if err != nil {
			t.Fatalf("retained session %s: %v", id, err)
		}
		if _, err := s.TranscriptJSON(); err != nil {
			t.Fatalf("retained session %s transcript: %v", id, err)
		}
	}
}

func TestBudgetExhaustionIsTyped(t *testing.T) {
	m := testManager(t, Limits{})
	s, err := m.CreateSession(SessionParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Query(countingSpec(i % 3)); err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
	}
	_, err = s.Query(distinctSpec(0))
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("query past K error = %v, want ErrBudgetExhausted", err)
	}
	if st := s.Status(); !st.Exhausted {
		t.Fatalf("status after exhaustion = %+v, want Exhausted", st)
	}
	// A repeat of an already-answered query is post-processing: it keeps
	// working from the cache even on an exhausted session.
	res, err := s.Query(countingSpec(0))
	if err != nil || !res.Cached {
		t.Fatalf("cached repeat after exhaustion = %+v, %v; want cached answer", res, err)
	}
	// Exhaustion is not closure: the slot stays open until Close.
	if st := s.Status(); st.Closed {
		t.Fatal("exhausted session reports closed")
	}
}

func TestSessionLimit(t *testing.T) {
	m := testManager(t, Limits{MaxSessions: 2})
	a, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateSession(SessionParams{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateSession(SessionParams{}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("create past limit error = %v, want ErrTooManySessions", err)
	}
	// Closing frees the slot.
	if err := m.CloseSession(a.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateSession(SessionParams{}); err != nil {
		t.Fatalf("create after freeing a slot: %v", err)
	}
}

func TestMaxKLimit(t *testing.T) {
	m := testManager(t, Limits{MaxK: 50})
	if _, err := m.CreateSession(SessionParams{K: 51}); err == nil {
		t.Fatal("session with K above the limit was created")
	}
	if _, err := m.CreateSession(SessionParams{K: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShutdown(t *testing.T) {
	m := testManager(t, Limits{})
	s, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	m.Shutdown() // idempotent
	if m.OpenSessions() != 0 {
		t.Fatalf("open sessions after shutdown = %d, want 0", m.OpenSessions())
	}
	if _, err := m.CreateSession(SessionParams{}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("create after shutdown error = %v, want ErrShuttingDown", err)
	}
	if _, err := s.Query(countingSpec(0)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("query after shutdown error = %v, want ErrSessionClosed", err)
	}
	// Audit reads survive shutdown.
	if _, err := s.TranscriptJSON(); err != nil {
		t.Fatalf("transcript after shutdown: %v", err)
	}
}

// Distinct sessions must be queryable from distinct goroutines in parallel
// with no shared-state races (run under -race).
func TestConcurrentDistinctSessions(t *testing.T) {
	m := testManager(t, Limits{})
	const workers = 8
	const queriesEach = 4
	sessions := make([]*Session, workers)
	for i := range sessions {
		s, err := m.CreateSession(SessionParams{K: queriesEach})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for q := 0; q < queriesEach; q++ {
				if _, err := s.Query(distinctSpec(q)); err != nil {
					errs[i] = fmt.Errorf("session %s query %d: %w", s.ID(), q+1, err)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sessions {
		if st := s.Status(); st.QueriesUsed != queriesEach {
			t.Fatalf("session %s answered %d queries, want %d", s.ID(), st.QueriesUsed, queriesEach)
		}
	}
}

// One session hammered from many goroutines must serialize cleanly: every
// outcome is either a successful answer or a typed budget rejection, and
// the ledger never over-counts (run under -race).
func TestConcurrentSharedSession(t *testing.T) {
	m := testManager(t, Limits{})
	const k = 6
	const workers = 4
	const attemptsEach = 3 // 12 attempts > K, so some must be rejected
	s, err := m.CreateSession(SessionParams{K: k})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var answered, rejected int
	var bad error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < attemptsEach; q++ {
				_, err := s.Query(distinctSpec(w*attemptsEach + q))
				mu.Lock()
				switch {
				case err == nil:
					answered++
				case errors.Is(err, ErrBudgetExhausted):
					rejected++
				default:
					bad = err
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if bad != nil {
		t.Fatal(bad)
	}
	if answered != k {
		t.Fatalf("answered %d queries on a K = %d session", answered, k)
	}
	if rejected != workers*attemptsEach-k {
		t.Fatalf("rejected %d, want %d", rejected, workers*attemptsEach-k)
	}
	if st := s.Status(); st.QueriesUsed != k || !st.Exhausted {
		t.Fatalf("final status %+v, want %d used and exhausted", st, k)
	}
}

// Concurrent creates must respect the session limit exactly.
func TestConcurrentCreateRespectsLimit(t *testing.T) {
	const limit = 3
	m := testManager(t, Limits{MaxSessions: limit})
	const attempts = 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	var created, refused int
	var bad error
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := m.CreateSession(SessionParams{})
			mu.Lock()
			switch {
			case err == nil:
				created++
			case errors.Is(err, ErrTooManySessions):
				refused++
			default:
				bad = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if bad != nil {
		t.Fatal(bad)
	}
	if created != limit || refused != attempts-limit {
		t.Fatalf("created %d refused %d, want %d and %d", created, refused, limit, attempts-limit)
	}
	if m.OpenSessions() != limit {
		t.Fatalf("open sessions = %d, want %d", m.OpenSessions(), limit)
	}
}

func TestOracleByName(t *testing.T) {
	for _, name := range []string{"", "noisygd", "netexp", "outputperturb", "glmreduce", "laplace-linear"} {
		if _, err := OracleByName(name, 0); err != nil {
			t.Errorf("OracleByName(%q): %v", name, err)
		}
	}
	// nonprivate is erm's test-only accuracy ceiling: it ignores ε and δ,
	// so a server must never answer with it.
	for _, name := range []string{"bogus", "nonprivate"} {
		if _, err := OracleByName(name, 0); err == nil {
			t.Errorf("OracleByName accepted %q", name)
		}
	}
}

// TestOraclesLeaveDatasetHistogramUntouched answers directly with every
// oracle OracleByName serves, on one dataset, and checks that the
// histogram the dataset shares with all of them is still the same pointer
// with the same bits as a fresh count of the rows: no oracle writes it.
func TestOraclesLeaveDatasetHistogramUntouched(t *testing.T) {
	data := durableData(t, 1)
	shared := data.Histogram()
	logistic, err := convex.Build(data.U, convex.Spec{Kind: "logistic"})
	if err != nil {
		t.Fatal(err)
	}
	squared, err := convex.Build(data.U, convex.Spec{Kind: "squared"})
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := convex.NewRegularized(squared, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	halfspace, err := convex.Build(data.U, distinctSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	losses := []convex.Loss{logistic, squared, ridge, halfspace}
	for _, name := range []string{"noisygd", "netexp", "outputperturb", "glmreduce", "laplace-linear"} {
		oracle, err := OracleByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		answered := 0
		for i, l := range losses {
			// Not every oracle takes every loss (outputperturb needs
			// strong convexity, glmreduce a GLM, laplace-linear a
			// linear query); each must answer at least one.
			if _, err := oracle.Answer(sample.New(int64(i)), l, data, 1, 1e-6); err == nil {
				answered++
			}
		}
		if answered == 0 {
			t.Errorf("oracle %q answered none of the losses", name)
		}
	}
	if data.Histogram() != shared {
		t.Fatal("the dataset's histogram pointer changed")
	}
	fresh, err := histogram.FromRows(data.U, data.Rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range fresh.P {
		if shared.P[i] != p {
			t.Fatalf("shared P[%d] = %v after the oracles ran, fresh count gives %v", i, shared.P[i], p)
		}
	}
}

func TestQueryRejectsUnknownLoss(t *testing.T) {
	m := testManager(t, Limits{})
	s, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(convex.Spec{Kind: "bogus"}); err == nil {
		t.Fatal("unknown loss kind accepted")
	}
	// A failed build must not consume budget.
	if st := s.Status(); st.QueriesUsed != 0 {
		t.Fatalf("failed build consumed %d queries", st.QueriesUsed)
	}
}
