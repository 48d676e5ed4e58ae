package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sample"
	"repro/internal/universe"
)

// startServer brings up the full HTTP stack — manager, handler, real
// listener on an ephemeral port — exactly as `pmwcm serve` would.
func startServer(t *testing.T) (*Manager, string) {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := sample.New(42)
	pop, err := dataset.Skewed(g, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.SampleFrom(src.Split(), pop, 200000)
	m, err := New(Config{
		Data:   data,
		Source: src.Split(),
		Defaults: SessionParams{
			Eps: 1, Delta: 1e-6, Alpha: 0.02, K: 100, TBudget: 12,
		},
		Limits: Limits{MaxSessions: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewHandler(m)}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		m.Shutdown()
	})
	return m, "http://" + ln.Addr().String()
}

// doJSON issues a request with an optional JSON body and decodes the JSON
// response, returning the HTTP status.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd is the acceptance path: start the service on an
// ephemeral port, create a session over HTTP, submit several
// convex-minimization queries (at least one crossing the sparse-vector
// threshold and spending oracle budget), read back the JSON transcript with
// its cumulative privacy spend, and observe the budget-exhaustion rejection
// after the K-th query.
func TestHTTPEndToEnd(t *testing.T) {
	_, base := startServer(t)

	// Health and loss discovery.
	var health struct {
		OK           bool   `json:"ok"`
		OpenSessions int    `json:"open_sessions"`
		Universe     string `json:"universe"`
	}
	if st := doJSON(t, "GET", base+"/healthz", nil, &health); st != 200 || !health.OK {
		t.Fatalf("healthz: status %d, %+v", st, health)
	}
	var losses struct {
		Kinds []string `json:"kinds"`
	}
	if st := doJSON(t, "GET", base+"/v1/losses", nil, &losses); st != 200 || len(losses.Kinds) < 8 {
		t.Fatalf("losses: status %d, kinds %v", st, losses.Kinds)
	}

	// Create a session with K = 4.
	const k = 4
	var sess SessionStatus
	if st := doJSON(t, "POST", base+"/v1/sessions", map[string]any{"k": k}, &sess); st != 201 {
		t.Fatalf("create session: status %d", st)
	}
	if sess.QueriesMax != k || sess.ID == "" {
		t.Fatalf("created session %+v, want K = %d", sess, k)
	}

	// Submit K queries: counting queries plus genuine CM queries. With the
	// fixed seed, the skewed data sits far from the uniform starting
	// hypothesis, so at least one must cross the SV threshold (⊤) and
	// spend oracle budget.
	queries := []map[string]any{
		{"kind": "positive", "params": map[string]any{"coord": 0}},
		{"kind": "halfspace", "params": map[string]any{"w": []float64{1, 1, 0}, "threshold": 0}},
		{"kind": "logistic", "params": map[string]any{"temp": 0.5}},
		{"kind": "squared"},
	}
	var tops int
	var spentSum float64
	for i, q := range queries {
		var res QueryResult
		st := doJSON(t, "POST", base+"/v1/sessions/"+sess.ID+"/query", q, &res)
		if st != 200 {
			t.Fatalf("query %d: status %d", i+1, st)
		}
		if len(res.Answer) == 0 {
			t.Fatalf("query %d: empty answer", i+1)
		}
		if res.QueriesUsed != i+1 {
			t.Fatalf("query %d: ledger says %d used", i+1, res.QueriesUsed)
		}
		if res.Top {
			tops++
			if res.EpsSpent <= 0 {
				t.Fatalf("query %d: ⊤ with no oracle spend", i+1)
			}
		} else if res.EpsSpent != 0 {
			t.Fatalf("query %d: ⊥ but spent ε = %v", i+1, res.EpsSpent)
		}
		spentSum += res.EpsSpent
	}
	if tops == 0 {
		t.Fatal("no query triggered ⊤/oracle spend; the acceptance path needs at least one")
	}

	// A K+1-st *fresh* query is rejected with the budget-exhaustion
	// status; a repeat of an answered query is served from the cache with
	// zero spend even though the session is exhausted.
	var apiErr struct {
		Error string `json:"error"`
	}
	fresh := map[string]any{"kind": "positive", "params": map[string]any{"coord": 1}}
	if st := doJSON(t, "POST", base+"/v1/sessions/"+sess.ID+"/query", fresh, &apiErr); st != 429 {
		t.Fatalf("query past K: status %d (%s), want 429", st, apiErr.Error)
	}
	var cachedRes QueryResult
	if st := doJSON(t, "POST", base+"/v1/sessions/"+sess.ID+"/query", queries[0], &cachedRes); st != 200 || !cachedRes.Cached || cachedRes.EpsSpent != 0 {
		t.Fatalf("cached repeat past K: status %d, %+v; want 200 cached zero-spend", st, cachedRes)
	}

	// The transcript shows every event and the cumulative privacy spend.
	var tr TranscriptRecord
	if st := doJSON(t, "GET", base+"/v1/sessions/"+sess.ID+"/transcript", nil, &tr); st != 200 {
		t.Fatalf("transcript: status %d", st)
	}
	if len(tr.Transcript.Events) != k {
		t.Fatalf("transcript has %d events, want %d", len(tr.Transcript.Events), k)
	}
	if tr.Tops != tops {
		t.Fatalf("transcript counts %d ⊤, observed %d", tr.Tops, tops)
	}
	if diff := tr.CumEps - spentSum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("cumulative spend %v != summed per-query spend %v", tr.CumEps, spentSum)
	}
	if tr.EpsBound <= tr.CumEps || tr.EpsBound > sess.EpsBudget+1e-9 {
		t.Fatalf("privacy bound %v not in (%v, %v]", tr.EpsBound, tr.CumEps, sess.EpsBudget)
	}

	// Status reflects exhaustion; close flips it to 409s.
	var st SessionStatus
	if code := doJSON(t, "GET", base+"/v1/sessions/"+sess.ID, nil, &st); code != 200 || !st.Exhausted {
		t.Fatalf("status: code %d, %+v; want exhausted", code, st)
	}
	var closed struct {
		Closed bool `json:"closed"`
	}
	if code := doJSON(t, "DELETE", base+"/v1/sessions/"+sess.ID, nil, &closed); code != 200 || !closed.Closed {
		t.Fatalf("close: code %d, %+v", code, closed)
	}
	if code := doJSON(t, "POST", base+"/v1/sessions/"+sess.ID+"/query", queries[0], &apiErr); code != 409 {
		t.Fatalf("query after close: status %d, want 409", code)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, base := startServer(t)
	var apiErr struct {
		Error string `json:"error"`
	}
	if st := doJSON(t, "GET", base+"/v1/sessions/s-424242", nil, &apiErr); st != 404 {
		t.Fatalf("unknown session: status %d, want 404", st)
	}
	var sess SessionStatus
	if st := doJSON(t, "POST", base+"/v1/sessions", nil, &sess); st != 201 {
		t.Fatalf("create with empty body: status %d, want 201 (defaults)", st)
	}
	if st := doJSON(t, "POST", base+"/v1/sessions/"+sess.ID+"/query",
		map[string]any{"kind": "bogus"}, &apiErr); st != 400 {
		t.Fatalf("unknown loss: status %d, want 400", st)
	}
	if st := doJSON(t, "POST", base+"/v1/sessions/"+sess.ID+"/query",
		map[string]any{"kind": "positive", "params": map[string]any{"coordz": 1}}, &apiErr); st != 400 {
		t.Fatalf("typo'd params: status %d, want 400", st)
	}
	// Session limit (MaxSessions = 4, one open) → three more fine, then 503.
	for i := 0; i < 3; i++ {
		if st := doJSON(t, "POST", base+"/v1/sessions", nil, &sess); st != 201 {
			t.Fatalf("create %d: status %d", i+2, st)
		}
	}
	if st := doJSON(t, "POST", base+"/v1/sessions", nil, &apiErr); st != 503 {
		t.Fatalf("create past limit: status %d, want 503", st)
	}
}

func TestHTTPShutdownRejectsNewWork(t *testing.T) {
	m, base := startServer(t)
	var sess SessionStatus
	if st := doJSON(t, "POST", base+"/v1/sessions", nil, &sess); st != 201 {
		t.Fatalf("create: status %d", st)
	}
	m.Shutdown()
	var apiErr struct {
		Error string `json:"error"`
	}
	if st := doJSON(t, "POST", base+"/v1/sessions", nil, &apiErr); st != 503 {
		t.Fatalf("create after shutdown: status %d, want 503", st)
	}
	if st := doJSON(t, "POST", base+"/v1/sessions/"+sess.ID+"/query",
		map[string]any{"kind": "positive"}, &apiErr); st != 409 {
		t.Fatalf("query after shutdown: status %d, want 409", st)
	}
	// Audit reads survive shutdown.
	var tr TranscriptRecord
	if st := doJSON(t, "GET", base+"/v1/sessions/"+sess.ID+"/transcript", nil, &tr); st != 200 {
		t.Fatalf("transcript after shutdown: status %d", st)
	}
}

// TestHTTPSessionList exercises the listing endpoint with several live
// sessions.
func TestHTTPSessionList(t *testing.T) {
	_, base := startServer(t)
	var sess SessionStatus
	for i := 0; i < 3; i++ {
		if st := doJSON(t, "POST", base+"/v1/sessions", map[string]any{"k": 2 + i}, &sess); st != 201 {
			t.Fatalf("create %d: status %d", i+1, st)
		}
	}
	var list struct {
		Sessions []SessionStatus `json:"sessions"`
	}
	if st := doJSON(t, "GET", base+"/v1/sessions", nil, &list); st != 200 {
		t.Fatalf("list: status %d", st)
	}
	if len(list.Sessions) != 3 {
		t.Fatalf("listed %d sessions, want 3", len(list.Sessions))
	}
	for i, s := range list.Sessions {
		if want := fmt.Sprintf("s-%06d", i+1); s.ID != want {
			t.Fatalf("session %d id = %q, want %q", i, s.ID, want)
		}
		if s.QueriesMax != 2+i {
			t.Fatalf("session %d K = %d, want %d", i, s.QueriesMax, 2+i)
		}
	}
}

// TestHTTPUnavailableCarriesRetryAfter: every 503 a replica sends — at
// the session cap and after shutdown — tells the client when to retry,
// and other failures carry no Retry-After. The replica is served by
// httptest, as a router's tests reach it.
func TestHTTPUnavailableCarriesRetryAfter(t *testing.T) {
	m, _ := startServer(t)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 4; i++ { // MaxSessions = 4
		if resp := post(); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i+1, resp.StatusCode)
		}
	}
	if resp := post(); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != retryAfterSeconds {
		t.Errorf("create past limit: status %d, Retry-After %q; want 503 with %q",
			resp.StatusCode, resp.Header.Get("Retry-After"), retryAfterSeconds)
	}
	resp, err := http.Get(srv.URL + "/v1/sessions/s-424242")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Retry-After") != "" {
		t.Errorf("unknown session: status %d, Retry-After %q; want 404 with none",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	m.Shutdown()
	if resp := post(); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != retryAfterSeconds {
		t.Errorf("create after shutdown: status %d, Retry-After %q; want 503 with %q",
			resp.StatusCode, resp.Header.Get("Retry-After"), retryAfterSeconds)
	}
}
