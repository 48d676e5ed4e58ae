package service

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/convex"
)

// TestCacheHitGolden is the acceptance invariant of the answer cache, per
// accountant: a repeat of an answered query is served with a byte-identical
// answer while spending zero budget and advancing no randomness — the
// complete mechanism state (noise-stream positions, sparse-vector run, MW
// weights, accountant ledger) is bit-identical before and after the
// repeat. The invariant must survive snapshot → restart → repeat: the
// restored session serves the same bytes from the transcript-rebuilt cache.
func TestCacheHitGolden(t *testing.T) {
	for _, acct := range []string{"basic", "advanced", "zcdp"} {
		t.Run(acct, func(t *testing.T) {
			defaults := SessionParams{
				Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 10, TBudget: 6,
				Accountant: acct,
			}
			dir := t.TempDir()
			m1 := durableManager(t, dir, 1, 9, defaults)
			s1, err := m1.CreateSession(SessionParams{})
			if err != nil {
				t.Fatal(err)
			}
			// Answer a mixed stream so the cache holds ⊥ and (with the
			// fixed seed) at least one ⊤ answer.
			specs := mixedSpecs(4)
			firsts := make([]*QueryResult, len(specs))
			tops := 0
			for i, q := range specs {
				if firsts[i], err = s1.Query(q); err != nil {
					t.Fatal(err)
				}
				if firsts[i].Top {
					tops++
				}
			}
			if tops == 0 {
				t.Fatal("fixture produced no ⊤ answers; the zero-spend claim would be vacuous")
			}

			// The golden check: repeats change nothing. Snapshot the entire
			// mechanism state — including every noise-stream position — and
			// require it bit-identical after the repeats.
			before := s1.rec.Srv.Snapshot()
			budgetBefore := s1.rec.Srv.Remaining()
			eventsBefore := len(s1.rec.T.Events)
			for i, q := range specs {
				res, err := s1.Query(q)
				if err != nil {
					t.Fatalf("repeat %d: %v", i, err)
				}
				if !res.Cached {
					t.Fatalf("repeat %d not served from cache: %+v", i, res)
				}
				if res.EpsSpent != 0 || res.DeltaSpent != 0 || res.RhoSpent != 0 {
					t.Fatalf("repeat %d spent (%v, %v, %v), want zero", i, res.EpsSpent, res.DeltaSpent, res.RhoSpent)
				}
				answersEqual(t, "repeat", firsts[i].Answer, res.Answer)
			}
			after := s1.rec.Srv.Snapshot()
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("repeat queries moved mechanism state:\nbefore %+v\nafter  %+v", before, after)
			}
			if after.Src != before.Src {
				t.Fatalf("repeat queries advanced the oracle noise stream: %+v → %+v", before.Src, after.Src)
			}
			if got := s1.rec.Srv.Remaining(); got != budgetBefore {
				t.Fatalf("repeat queries moved the budget: %+v → %+v", budgetBefore, got)
			}
			if got := len(s1.rec.T.Events); got != eventsBefore {
				t.Fatalf("repeat queries appended %d transcript events", got-eventsBefore)
			}

			// Survives snapshot → restart → repeat: the restored session
			// rebuilds the cache from the transcript and re-releases the
			// same bytes, still spending nothing.
			m1.Shutdown()
			m2 := durableManager(t, dir, 1, 777, defaults)
			defer m2.Shutdown()
			s2, err := m2.Session(s1.ID())
			if err != nil {
				t.Fatal(err)
			}
			restoredBefore := s2.rec.Srv.Snapshot()
			for i, q := range specs {
				res, err := s2.Query(q)
				if err != nil {
					t.Fatalf("post-restart repeat %d: %v", i, err)
				}
				if !res.Cached || res.EpsSpent != 0 {
					t.Fatalf("post-restart repeat %d: %+v, want zero-spend cache hit", i, res)
				}
				answersEqual(t, "post-restart repeat", firsts[i].Answer, res.Answer)
			}
			if restoredAfter := s2.rec.Srv.Snapshot(); !reflect.DeepEqual(restoredBefore, restoredAfter) {
				t.Fatalf("post-restart repeats moved mechanism state")
			}
		})
	}
}

// answersEqual compares released parameter vectors bit-for-bit.
func answersEqual(t *testing.T, stage string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: answer lengths %d vs %d", stage, len(want), len(got))
	}
	for j := range want {
		if want[j] != got[j] {
			t.Fatalf("%s: answer[%d] = %x, want %x", stage, j, got[j], want[j])
		}
	}
}

// TestCacheKeyNormalizationServesHits checks the canonicalization is live
// end to end: parameter reordering and explicit defaults hit the cache
// entry the original spelling created.
func TestCacheKeyNormalizationServesHits(t *testing.T) {
	m := testManager(t, Limits{})
	s, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Query(convex.Spec{Kind: "logistic", Params: json.RawMessage(`{"temp":0.5}`)})
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []string{`{}`, `{"margin":0,"temp":0.5}`, `{"temp":0.5,"margin":0}`} {
		res, err := s.Query(convex.Spec{Kind: "logistic", Params: json.RawMessage(alt)})
		if err != nil {
			t.Fatalf("%s: %v", alt, err)
		}
		if !res.Cached {
			t.Fatalf("%s: missed the cache", alt)
		}
		answersEqual(t, alt, first.Answer, res.Answer)
	}
	// A genuinely different instance must not hit.
	res, err := s.Query(convex.Spec{Kind: "logistic", Params: json.RawMessage(`{"temp":0.7}`)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("distinct params served from cache")
	}
}

// TestConcurrentCacheHitsDuringMiss runs cache-hit readers concurrently
// with in-flight misses and status reads (exercised under -race in CI):
// hits are lock-free, so they must stay correct — and zero-spend — while
// the mechanism is mid-answer on the same session.
func TestConcurrentCacheHitsDuringMiss(t *testing.T) {
	m := testManager(t, Limits{})
	s, err := m.CreateSession(SessionParams{K: 40})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := s.Query(countingSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Misses: distinct squared/logistic queries keep the session mutex busy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := s.Query(distinctSpec(i)); err != nil && !errors.Is(err, ErrBudgetExhausted) {
				t.Errorf("miss %d: %v", i, err)
				return
			}
		}
	}()
	// Hits: many readers repeating the cached query while misses run.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := s.Query(countingSpec(0))
				if err != nil {
					t.Errorf("hit: %v", err)
					return
				}
				if !res.Cached || res.EpsSpent != 0 {
					t.Errorf("hit: %+v, want zero-spend cached", res)
					return
				}
				answersEqual(t, "concurrent hit", seed.Answer, res.Answer)
			}
		}()
	}
	// Status readers must also never block on or race the query path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = s.Status()
		}
	}()
	wg.Wait()
}

// TestCacheGateHoldsUntilDurable pins the write-ahead rule on the cache
// path: a ⊤ answer whose commit failed is not servable — not to its
// asker, not as a cache hit — until a later save lands; the gated repeat
// re-drives the save and heals once the store recovers.
func TestCacheGateHoldsUntilDurable(t *testing.T) {
	url, blobs := blobStore(t)
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 10, TBudget: 6}
	m := durableManager(t, url, 1, 9, defaults)
	defer m.Shutdown()
	s, err := m.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	// Break the store: every subsequent log append and snapshot fails.
	blobs.down.Store(true)
	var topSpec convex.Spec
	found := false
	for _, q := range mixedSpecs(8) {
		_, err := s.Query(q)
		if err == nil {
			continue // ⊥ answers need no durability
		}
		if !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("query error = %v, want ErrCheckpoint", err)
		}
		topSpec, found = q, true
		break
	}
	if !found {
		t.Fatal("fixture produced no ⊤ answer; gate test is vacuous")
	}
	// The repeat must NOT be served from the cache while the spend is not
	// durable: the gated entry routes it through the locked path, whose
	// save retry fails against the broken store.
	if _, err := s.Query(topSpec); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("gated repeat error = %v, want ErrCheckpoint (answer withheld until durable)", err)
	}
	// Repair the store: the next repeat re-drives the save, the spend
	// lands, and the cached answer is released.
	blobs.down.Store(false)
	res, err := s.Query(topSpec)
	if err != nil {
		t.Fatalf("repeat after repair: %v", err)
	}
	if !res.Cached || res.EpsSpent != 0 {
		t.Fatalf("repeat after repair = %+v, want zero-spend cache hit", res)
	}
	// And now it is lock-free servable.
	if r2, err := s.Query(topSpec); err != nil || !r2.Cached {
		t.Fatalf("healed entry not served: %+v, %v", r2, err)
	}
}
