package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/convex"
	"repro/internal/persist"
)

// batchStream is a query stream with in-batch duplicates, cross-batch
// repeats, an unknown kind, and malformed params — every partition class
// the batch pipeline distinguishes.
func batchStream() []convex.Spec {
	return []convex.Spec{
		countingSpec(0),
		{Kind: "squared"},
		countingSpec(0), // in-batch duplicate of an earlier miss
		{Kind: "logistic", Params: json.RawMessage(`{"temp":0.5}`)},
		{Kind: "nope"}, // unknown kind
		{Kind: "logistic", Params: json.RawMessage(`{"tempp":1}`)},  // unknown field
		{Kind: "logistic", Params: json.RawMessage(`{"margin":0}`)}, // canonical duplicate of the temp:0.5 default
		countingSpec(1),
		{Kind: "hinge"},
		countingSpec(2),
	}
}

// TestQueryBatchEquivalence is the batch acceptance invariant, per
// accountant and per manager kind (memory-only, remote blob store, state
// directory): a QueryBatch of N specs is bit-identical — every field of
// every item's result (released answer, ⊥/⊤/cached disposition, spend,
// and the ledger counters it reports), per-item errors, budget ledger,
// and transcript bytes — to the same N specs issued as sequential Query
// calls. One spec is answered before the batch and repeated mid-batch, so
// a cached item must report the ledger the misses before it left; a
// second, all-cached pass covers the lock-free path. The durable kinds
// exercise the gating and write-ahead commit both paths share, over each
// log sink.
func TestQueryBatchEquivalence(t *testing.T) {
	managers := []struct {
		name string
		make func(t *testing.T, defaults SessionParams) *Manager
	}{
		{"memory", func(t *testing.T, defaults SessionParams) *Manager {
			return durableManager(t, "", 1, 9, defaults)
		}},
		{"remote", func(t *testing.T, defaults SessionParams) *Manager {
			url, _ := blobStore(t)
			return durableManager(t, url, 1, 9, defaults)
		}},
		{"wal", func(t *testing.T, defaults SessionParams) *Manager {
			return durableManager(t, t.TempDir(), 1, 9, defaults)
		}},
	}
	pre := distinctSpec(1)
	specs := batchStream()
	specs = append(specs[:5:5], append([]convex.Spec{pre}, specs[5:]...)...)
	for _, acct := range []string{"basic", "advanced", "zcdp"} {
		t.Run(acct, func(t *testing.T) {
			for _, mk := range managers {
				t.Run(mk.name, func(t *testing.T) {
					defaults := SessionParams{
						Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 8, TBudget: 4,
						Accountant: acct,
					}
					open := func() *Session {
						m := mk.make(t, defaults)
						t.Cleanup(m.Shutdown)
						s, err := m.CreateSession(SessionParams{})
						if err != nil {
							t.Fatal(err)
						}
						if _, err := s.Query(pre); err != nil {
							t.Fatal(err)
						}
						return s
					}
					seqS, batS := open(), open()

					for pass := 1; pass <= 2; pass++ {
						seqItems := make([]BatchItem, len(specs))
						for i, q := range specs {
							res, err := seqS.Query(q)
							if err != nil {
								seqItems[i].Error = err.Error()
							} else {
								seqItems[i].Result = res
							}
						}
						batItems, err := batS.QueryBatch(specs)
						if err != nil {
							t.Fatal(err)
						}
						for i := range specs {
							itemsEqual(t, fmt.Sprintf("pass %d item %d", pass, i), seqItems[i], batItems[i])
						}
					}

					// Ledger equivalence: identical composed spend, remaining
					// budget, and counters.
					seqSt, batSt := seqS.Status(), batS.Status()
					seqSt.ID, batSt.ID = "", ""
					seqSt.Created, batSt.Created = seqS.created, seqS.created
					if seqSt != batSt {
						t.Fatalf("status differs:\nseq   %+v\nbatch %+v", seqSt, batSt)
					}

					// Transcript equivalence, byte for byte.
					seqTr, err := seqS.TranscriptJSON()
					if err != nil {
						t.Fatal(err)
					}
					batTr, err := batS.TranscriptJSON()
					if err != nil {
						t.Fatal(err)
					}
					if string(seqTr) != string(batTr) {
						t.Fatalf("transcripts differ:\n%s\n%s", seqTr, batTr)
					}
				})
			}
		})
	}
}

// itemsEqual fails unless two batch items carry the same error or results
// equal in every field, answers bit for bit.
func itemsEqual(t *testing.T, stage string, want, got BatchItem) {
	t.Helper()
	if want.Error != got.Error {
		t.Fatalf("%s: sequential error %q, batch error %q", stage, want.Error, got.Error)
	}
	if want.Result == nil {
		return
	}
	answersEqual(t, stage, want.Result.Answer, got.Result.Answer)
	a, b := *want.Result, *got.Result
	a.Answer, b.Answer = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s differs:\nseq   %+v\nbatch %+v", stage, a, b)
	}
}

// TestQueryBatchDurableEquivalence pins the durability economy: the batch
// path checkpoints once at the end of the batch (write-ahead for every
// spend in it), and after a forced checkpoint on both sides its on-disk
// mechanism state and transcript decode identically to the sequential
// path's. The batch writer's savedSeq must cover the whole transcript —
// the single write made every spend durable.
func TestQueryBatchDurableEquivalence(t *testing.T) {
	defaults := SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 8, TBudget: 4}
	specs := batchStream()

	dirSeq, dirBat := t.TempDir(), t.TempDir()
	seqM := durableManager(t, dirSeq, 1, 9, defaults)
	defer seqM.Shutdown()
	seqS, err := seqM.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range specs {
		seqS.Query(q) // per-item errors are fine; they match the batch path
	}

	batM := durableManager(t, dirBat, 1, 9, defaults)
	defer batM.Shutdown()
	batS, err := batM.CreateSession(SessionParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batS.QueryBatch(specs); err != nil {
		t.Fatal(err)
	}
	// The batch's one trailing write must already have made every recorded
	// event durable — no spend waits for a later checkpoint.
	batS.saveMu.Lock()
	saved := batS.savedSeq
	batS.saveMu.Unlock()
	if want := len(batS.rec.T.Events); saved < want {
		t.Fatalf("batch left savedSeq %d < %d recorded events", saved, want)
	}

	// The sequential file legitimately lags by a ⊥-only tail (it
	// checkpoints per ⊤, the batch at the end); force both to a final
	// checkpoint before comparing on-disk state.
	if err := seqS.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := batS.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seqState := loadState(t, seqM, seqS.ID())
	batState := loadState(t, batM, batS.ID())
	if !jsonEqual(t, seqState.Core, batState.Core) {
		t.Fatal("core snapshots differ between sequential and batch runs")
	}
	if !jsonEqual(t, seqState.Transcript, batState.Transcript) {
		t.Fatal("persisted transcripts differ between sequential and batch runs")
	}
}

func loadState(t *testing.T, m *Manager, id string) *persist.SessionState {
	t.Helper()
	st, err := m.cfg.Store.LoadSession(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}

// TestQueryBatchConcurrent drives overlapping batches from concurrent
// goroutines (run under -race in CI): the mechanism answers each distinct
// canonical query exactly once regardless of which batch gets there first,
// and every duplicate resolves to a byte-identical cached answer.
func TestQueryBatchConcurrent(t *testing.T) {
	m := testManager(t, Limits{})
	s, err := m.CreateSession(SessionParams{K: 40})
	if err != nil {
		t.Fatal(err)
	}
	specs := []convex.Spec{
		countingSpec(0), countingSpec(1), {Kind: "squared"}, countingSpec(2),
	}
	const workers = 4
	results := make([][]BatchItem, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			items, err := s.QueryBatch(specs)
			if err != nil {
				t.Errorf("batch %d: %v", w, err)
				return
			}
			results[w] = items
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for w := 1; w < workers; w++ {
		for i := range specs {
			if results[w][i].Error != "" || results[0][i].Error != "" {
				t.Fatalf("batch %d item %d errored: %q %q", w, i, results[0][i].Error, results[w][i].Error)
			}
			answersEqual(t, fmt.Sprintf("batch %d item %d", w, i),
				results[0][i].Result.Answer, results[w][i].Result.Answer)
		}
	}
	// Exactly one mechanism answer per distinct canonical query.
	if st := s.Status(); st.QueriesUsed != len(specs) {
		t.Fatalf("mechanism answered %d queries for %d distinct specs", st.QueriesUsed, len(specs))
	}
}

// TestHTTPBatch covers the batch endpoint end to end: partition counters,
// per-item errors, ordering, and the request-validation failure modes.
func TestHTTPBatch(t *testing.T) {
	_, base := startServer(t)
	var sess SessionStatus
	if st := doJSON(t, "POST", base+"/v1/sessions", map[string]any{"k": 8, "tbudget": 4}, &sess); st != 201 {
		t.Fatalf("create: status %d", st)
	}
	url := base + "/v1/sessions/" + sess.ID + "/queries:batch"

	var resp BatchResponse
	body := map[string]any{"queries": []any{
		map[string]any{"kind": "positive", "params": map[string]any{"coord": 0}},
		map[string]any{"kind": "positive", "params": map[string]any{"coord": 0}},
		map[string]any{"kind": "squared"},
		map[string]any{"kind": "nope"},
	}}
	if st := doJSON(t, "POST", url, body, &resp); st != 200 {
		t.Fatalf("batch: status %d", st)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("batch returned %d results, want 4", len(resp.Results))
	}
	if resp.Results[0].Result == nil || resp.Results[0].Result.Cached {
		t.Fatalf("item 0 should be a fresh answer: %+v", resp.Results[0])
	}
	if resp.Results[1].Result == nil || !resp.Results[1].Result.Cached {
		t.Fatalf("item 1 should be an in-batch cache hit: %+v", resp.Results[1])
	}
	if resp.Results[3].Error == "" {
		t.Fatal("item 3 (unknown kind) should carry a per-item error")
	}
	if resp.CacheHits != 1 || resp.Errors != 1 {
		t.Fatalf("summary %+v, want 1 cache hit and 1 error", resp)
	}

	// A second identical batch is all hits.
	var again BatchResponse
	if st := doJSON(t, "POST", url, body, &again); st != 200 || again.CacheHits != 3 {
		t.Fatalf("repeat batch: status %d, %+v; want 3 cache hits", st, again)
	}

	// Validation and routing failures.
	var apiErr struct {
		Error string `json:"error"`
	}
	if st := doJSON(t, "POST", url, map[string]any{"queries": []any{}}, &apiErr); st != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", st)
	}
	big := make([]any, MaxBatchSize+1)
	for i := range big {
		big[i] = map[string]any{"kind": "squared"}
	}
	if st := doJSON(t, "POST", url, map[string]any{"queries": big}, &apiErr); st != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", st)
	}
	if st := doJSON(t, "POST", base+"/v1/sessions/s-999999/queries:batch", body, &apiErr); st != http.StatusNotFound {
		t.Fatalf("unknown session batch: status %d", st)
	}
}
