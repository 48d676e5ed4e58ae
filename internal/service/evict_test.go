package service

// evict_test.go pins the idle-eviction layer's contract: an evicted
// session pages back in and continues the interaction bit-identically to
// one that never left memory (the golden test, per accountant and per
// write path), residency stays bounded under -max-resident and -idle-ttl,
// and the evict / page-in / query races resolve without losing answers
// (the -race hammer).

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/sample"
)

// evictManager builds a durable manager over openStore(t, loc) with the
// given residency knobs.
func evictManager(t *testing.T, loc string, maxResident int, idleTTL time.Duration) *Manager {
	t.Helper()
	m, err := New(Config{
		Data:        durableData(t, 1),
		Source:      sample.New(9),
		Defaults:    SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 40, TBudget: 6},
		Store:       openStore(t, loc),
		MaxResident: maxResident,
		IdleTTL:     idleTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEvictPageInGolden is the tentpole invariant, per accountant and per
// store (wal=true is the state directory, remote the blob store): a
// session that is evicted mid-stream and paged back in on the next touch
// answers the remaining queries bit-identically — answers, ⊥/⊤ pattern,
// budget spend, final status, transcript bytes — to a session that stayed
// resident throughout.
func TestEvictPageInGolden(t *testing.T) {
	for _, store := range []string{"wal=true", "remote"} {
		for _, acct := range []string{"basic", "advanced", "zcdp"} {
			t.Run(store+"/"+acct, func(t *testing.T) {
				defaults := SessionParams{
					Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 12, TBudget: 6,
					Accountant: acct,
				}
				specs := mixedSpecs(12)

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

				// Subject: same stream, but the session is forced out of
				// residency twice mid-stream; m.Query pages it back in.
				loc := t.TempDir()
				if store == "remote" {
					loc, _ = blobStore(t)
				}
				m := durableManager(t, loc, 1, 9, defaults)
				defer m.Shutdown()
				s, err := m.CreateSession(SessionParams{})
				if err != nil {
					t.Fatal(err)
				}
				id := s.ID()
				for i, q := range specs {
					if i == 4 || i == 9 {
						if err := m.Evict(id); err != nil {
							t.Fatalf("evict before query %d: %v", i, err)
						}
						if got := m.ResidentSessions(); got != 0 {
							t.Fatalf("after evict: %d resident sessions, want 0", got)
						}
					}
					res, err := m.Query(id, q)
					if err != nil {
						t.Fatalf("query %d: %v", i, err)
					}
					sameResult(t, fmt.Sprintf("query %d", i), refResults[i], res)
				}

				refStatus, evStatus := refSess.Status(), SessionStatus{}
				if evStatus, err = m.SessionStatus(id); err != nil {
					t.Fatal(err)
				}
				// Ids differ (independent managers) and the eviction cycles
				// re-resolve cached repeats; everything budget-shaped must
				// match exactly.
				if refStatus.EpsSpent != evStatus.EpsSpent || refStatus.DeltaSpent != evStatus.DeltaSpent ||
					refStatus.EpsRemaining != evStatus.EpsRemaining ||
					refStatus.QueriesUsed != evStatus.QueriesUsed || refStatus.UpdatesUsed != evStatus.UpdatesUsed ||
					refStatus.Exhausted != evStatus.Exhausted {
					t.Fatalf("status diverged:\nref  %+v\nevic %+v", refStatus, evStatus)
				}

				// Transcript bytes: identical up to the session id embedded in
				// the record.
				refT, err := refSess.TranscriptJSON()
				if err != nil {
					t.Fatal(err)
				}
				evT, err := m.SessionTranscript(id)
				if err != nil {
					t.Fatal(err)
				}
				refS := strings.ReplaceAll(string(refT), refSess.ID(), "SID")
				evS := strings.ReplaceAll(string(evT), id, "SID")
				if refS != evS {
					t.Fatalf("transcripts diverged:\nref  %s\nevic %s", refS, evS)
				}
			})
		}
	}
}

// TestMaxResidentLRU pins the admission sweep: with MaxResident = 2 the
// manager keeps at most two live sessions in memory while all stay open
// and answerable, and it is the least-recently-touched session that pages
// out.
func TestMaxResidentLRU(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Data:        durableData(t, 1),
		Source:      sample.New(9),
		Defaults:    SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 40, TBudget: 6},
		Store:       st,
		MaxResident: 2,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	var ids []string
	for i := 0; i < 5; i++ {
		s, err := m.CreateSession(SessionParams{})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		ids = append(ids, s.ID())
		if got := m.ResidentSessions(); got > 2 {
			t.Fatalf("after create %d: %d resident, cap is 2", i, got)
		}
	}
	if got := m.OpenSessions(); got != 5 {
		t.Fatalf("open sessions = %d, want 5", got)
	}
	if got := m.ResidentSessions(); got != 2 {
		t.Fatalf("resident sessions = %d, want 2", got)
	}

	// The two newest sessions are the resident ones; the oldest is paged
	// out and must answer anyway (transparent page-in), evicting the
	// now-least-recently-touched resident.
	if _, err := m.Query(ids[0], countingSpec(0)); err != nil {
		t.Fatalf("query of paged-out session: %v", err)
	}
	if got := m.ResidentSessions(); got != 2 {
		t.Fatalf("after page-in: %d resident, want 2", got)
	}
	m.mu.Lock()
	_, oldestResident := m.sessions[ids[0]]
	m.mu.Unlock()
	if !oldestResident {
		t.Fatalf("just-touched session %s should be resident", ids[0])
	}

	// The residency cycle is visible in the metrics.
	var ev, pi float64
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Samples {
			switch fam.Name {
			case "pmwcm_session_evictions_total":
				ev = s.Value
			case "pmwcm_session_pageins_total":
				pi = s.Value
			}
		}
	}
	if ev < 4 || pi < 1 {
		t.Fatalf("metrics: evictions=%v pageins=%v, want >=4 and >=1", ev, pi)
	}
}

// TestIdleTTLJanitor pins the idle sweep: an untouched session is folded
// out of memory within a few TTLs and still answers afterwards.
func TestIdleTTLJanitor(t *testing.T) {
	m := evictManager(t, t.TempDir(), 0, 80*time.Millisecond)
	defer m.Shutdown()
	s, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	deadline := time.Now().Add(5 * time.Second)
	for m.ResidentSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session %s still resident after 5s with an 80ms idle TTL", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := m.OpenSessions(); got != 1 {
		t.Fatalf("open sessions = %d, want 1 (eviction must not close)", got)
	}
	if _, err := m.Query(id, countingSpec(0)); err != nil {
		t.Fatalf("query after idle eviction: %v", err)
	}
}

// TestLazyRecovery pins the residency-capped startup path: a fresh manager
// over a state directory full of live sessions restores only up to the cap
// eagerly and pages the rest in on first touch, with answers identical to
// an eager restart.
func TestLazyRecovery(t *testing.T) {
	dir := t.TempDir()
	m1 := evictManager(t, dir, 0, 0)
	var ids []string
	for i := 0; i < 4; i++ {
		s, err := m1.CreateSession(SessionParams{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Query(countingSpec(i % 2)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID())
	}
	m1.Shutdown()

	m2 := evictManager(t, dir, 2, 0)
	defer m2.Shutdown()
	if got := m2.OpenSessions(); got != 4 {
		t.Fatalf("recovered open sessions = %d, want 4", got)
	}
	if got := m2.ResidentSessions(); got != 0 {
		// Snapshot-only live sessions all recover lazily; none is resident
		// until touched.
		t.Fatalf("recovered resident sessions = %d, want 0", got)
	}
	for i, id := range ids {
		res, err := m2.Query(id, countingSpec(i%2))
		if err != nil {
			t.Fatalf("query recovered session %s: %v", id, err)
		}
		if !res.Cached {
			t.Fatalf("repeat of session %s's answered query was not served from the rebuilt cache", id)
		}
	}
	if got := m2.ResidentSessions(); got != 2 {
		t.Fatalf("resident sessions after touches = %d, want cap 2", got)
	}
}

// TestCreateSessionPinnedID pins the router-facing creation contract:
// caller-chosen ids round-trip, collide with ErrSessionExists (including
// against paged-out sessions), and hostile names are rejected before
// touching the store.
func TestCreateSessionPinnedID(t *testing.T) {
	m := evictManager(t, t.TempDir(), 0, 0)
	defer m.Shutdown()
	s, err := m.CreateSession(SessionParams{ID: "rt-00deadbeef00"})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != "rt-00deadbeef00" {
		t.Fatalf("session id = %q, want the pinned one", s.ID())
	}
	if _, err := m.CreateSession(SessionParams{ID: "rt-00deadbeef00"}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate pinned id: err = %v, want ErrSessionExists", err)
	}
	if err := m.Evict("rt-00deadbeef00"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateSession(SessionParams{ID: "rt-00deadbeef00"}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("pinned id colliding with a paged-out session: err = %v, want ErrSessionExists", err)
	}
	for _, bad := range []string{"../escape", "a b", "x/y", strings.Repeat("q", 200)} {
		if _, err := m.CreateSession(SessionParams{ID: bad}); err == nil {
			t.Fatalf("hostile id %q was accepted", bad)
		}
	}
	// A pinned id must not consume manager-issued sequence numbers.
	auto, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.ID() != "s-000001" {
		t.Fatalf("first auto id = %q, want s-000001", auto.ID())
	}
}

// TestEvictConcurrentHammer races queries, status reads, forced evictions,
// and page-ins on one session id. Run under -race this is the layer's
// linearizability smoke: every operation must either succeed or fail with
// a typed sentinel, never corrupt counts or deadlock.
func TestEvictConcurrentHammer(t *testing.T) {
	for _, store := range []string{"wal=true", "remote"} {
		t.Run(store, func(t *testing.T) {
			loc := t.TempDir()
			if store == "remote" {
				loc, _ = blobStore(t)
			}
			m := evictManager(t, loc, 0, 0)
			s, err := m.CreateSession(SessionParams{})
			if err != nil {
				t.Fatal(err)
			}
			id := s.ID()

			const workers = 4
			iters := 30
			if testing.Short() {
				iters = 8
			}
			var wg sync.WaitGroup
			errCh := make(chan error, workers*3*iters)
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if _, err := m.Query(id, countingSpec((w+i)%2)); err != nil && !errors.Is(err, ErrBudgetExhausted) {
							errCh <- fmt.Errorf("query: %w", err)
						}
					}
				}()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if err := m.Evict(id); err != nil && !errors.Is(err, ErrSessionNotFound) {
							errCh <- fmt.Errorf("evict: %w", err)
						}
					}
				}()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if _, err := m.SessionStatus(id); err != nil {
							errCh <- fmt.Errorf("status: %w", err)
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}

			// The dust settles into a consistent ledger: one open session,
			// resident count 0 or 1, and a transcript the restore path still
			// verifies (page in once more to prove it).
			if got := m.OpenSessions(); got != 1 {
				t.Fatalf("open sessions = %d, want 1", got)
			}
			if got := m.ResidentSessions(); got != 0 && got != 1 {
				t.Fatalf("resident sessions = %d, want 0 or 1", got)
			}
			if err := m.Evict(id); err != nil {
				t.Fatalf("final evict: %v", err)
			}
			if _, err := m.SessionStatus(id); err != nil {
				t.Fatalf("final page-in: %v", err)
			}
			m.Shutdown()
		})
	}
}
