package route

// handler_test.go covers the router's HTTP surface off the happy path:
// malformed and oversized bodies, a failing id source, the merged session
// listing with unreachable or misbehaving shards, and a fleet with every
// replica down.

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// rawReq sends body verbatim through h and returns the recorder.
func rawReq(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRouterRejectsBadRequests: bodies the router cannot read or decode
// fail with a 400 naming the problem, before any replica is contacted.
func TestRouterRejectsBadRequests(t *testing.T) {
	f := newFleet(t, 2, nil)
	huge := bytes.Repeat([]byte("x"), maxBodyBytes+1)
	for _, tc := range []struct {
		name, path string
		body       []byte
		want       string
	}{
		{"create-malformed", "/v1/sessions", []byte("{not json"), "decoding create body"},
		{"create-oversized", "/v1/sessions", huge, "reading create body"},
		{"query-oversized", "/v1/sessions/rt-000000000001/query", huge, "reading request body"},
	} {
		rec := rawReq(f.router, http.MethodPost, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: %d %s, want 400 mentioning %q", tc.name, rec.Code, rec.Body.String(), tc.want)
		}
	}
	for name, m := range f.managers {
		if n := m.OpenSessions(); n != 0 {
			t.Errorf("replica %s holds %d sessions after rejected requests", name, n)
		}
	}
	var v map[string]any
	if _, code := doReq(t, f.router, http.MethodGet, "/version", nil, &v); code != http.StatusOK || len(v) == 0 {
		t.Errorf("version: %d %v", code, v)
	}
}

// TestRouterIDSourceFailure: when the id source fails, create answers 500
// instead of forwarding a session without a routable id.
func TestRouterIDSourceFailure(t *testing.T) {
	rt, err := New([]Replica{{Name: "r1", URL: "http://127.0.0.1:1"}}, Options{
		IDSource: func(int) ([]byte, error) { return nil, errors.New("entropy exhausted") },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := rawReq(rt.Handler(), http.MethodPost, "/v1/sessions", nil)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "entropy exhausted") {
		t.Fatalf("create with a failing id source: %d %s", rec.Code, rec.Body.String())
	}
}

// TestRouterListMergesShards: the listing merges every reachable shard,
// sorted by id and tagged with each session's replica, and skips shards
// that are down, answer an error, or answer garbage.
func TestRouterListMergesShards(t *testing.T) {
	f := newFleet(t, 3, nil)
	const sessions = 5
	for i := 0; i < sessions; i++ {
		if _, code := doReq(t, f.router, http.MethodPost, "/v1/sessions", nil, nil); code != http.StatusCreated {
			t.Fatalf("create: %d", code)
		}
	}
	type listing struct {
		Sessions []struct {
			ID      string `json:"id"`
			Replica string `json:"replica"`
		} `json:"sessions"`
	}
	var all listing
	if _, code := doReq(t, f.router, http.MethodGet, "/v1/sessions", nil, &all); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(all.Sessions) != sessions {
		t.Fatalf("listing holds %d sessions, want %d", len(all.Sessions), sessions)
	}
	for i, s := range all.Sessions {
		if owner := f.rt.owner(s.ID).name; s.Replica != owner {
			t.Errorf("session %s tagged %q, owner %s", s.ID, s.Replica, owner)
		}
		if i > 0 && all.Sessions[i-1].ID >= s.ID {
			t.Errorf("listing not sorted: %s before %s", all.Sessions[i-1].ID, s.ID)
		}
	}

	// One good shard beside a failing, a garbage-speaking, and a dead one.
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json"))
	}))
	defer garbage.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt, err := New([]Replica{
		{Name: "r1", URL: f.replicas["r1"].URL},
		{Name: "failing", URL: failing.URL},
		{Name: "garbage", URL: garbage.URL},
		{Name: "dead", URL: dead.URL},
	}, Options{CoolDown: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	want := f.managers["r1"].OpenSessions()
	// The first listing finds the dead shard by its transport error; the
	// second skips it as down without a request.
	for pass := 1; pass <= 2; pass++ {
		var got listing
		if _, code := doReq(t, rt.Handler(), http.MethodGet, "/v1/sessions", nil, &got); code != http.StatusOK {
			t.Fatalf("pass %d: list: %d", pass, code)
		}
		if len(got.Sessions) != want {
			t.Fatalf("pass %d: listing holds %d sessions, want r1's %d", pass, len(got.Sessions), want)
		}
		for _, s := range got.Sessions {
			if s.Replica != "r1" {
				t.Fatalf("pass %d: session %s tagged %q", pass, s.ID, s.Replica)
			}
		}
	}
}

// TestRouterAllReplicasDown: with no replica reachable, catalog requests
// get the typed 503, and a transcript read with no store to fall back on
// does too.
func TestRouterAllReplicasDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt, err := New([]Replica{{Name: "r1", URL: dead.URL}}, Options{CoolDown: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	// The first request marks r1 down on its transport error; the second
	// finds no replica up at all.
	for pass := 1; pass <= 2; pass++ {
		rec := rawReq(h, http.MethodGet, "/v1/losses", nil)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("pass %d: losses with every replica down: %d %s", pass, rec.Code, rec.Body.String())
		}
	}
	rec := rawReq(h, http.MethodGet, "/v1/sessions/rt-000000000001/transcript", nil)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"replica": "r1"`) {
		t.Fatalf("transcript with no replica and no store: %d %s", rec.Code, rec.Body.String())
	}
}
