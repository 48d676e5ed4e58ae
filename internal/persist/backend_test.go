package persist

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sample"
)

// testBlobServer starts a blob server over a temp tree and returns a
// Remote over one namespace of it.
func testBlobServer(t *testing.T) (*BlobServer, *httptest.Server) {
	t.Helper()
	bs, err := NewBlobServer(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(bs.Handler())
	t.Cleanup(srv.Close)
	return bs, srv
}

func testRemote(t *testing.T, srv *httptest.Server, ns string) *Remote {
	t.Helper()
	r, err := OpenRemote(srv.URL+"/v1/stores/"+ns, RemoteOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testSessionState(id string) *SessionState {
	return &SessionState{
		ID:      id,
		Created: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC),
		Oracle:  "erm.laplace-linear",
		Params:  json.RawMessage(`{"eps":0.5,"k":100}`),
	}
}

func TestRemoteBackendRoundTrip(t *testing.T) {
	_, srv := testBlobServer(t)
	r := testRemote(t, srv, "r1")

	if !strings.HasSuffix(r.Location(), "/v1/stores/r1") {
		t.Errorf("Location() = %q", r.Location())
	}

	// Fresh namespace: no manifest, no sessions.
	if m, err := r.LoadManifest(); err != nil || m != nil {
		t.Fatalf("LoadManifest on empty namespace = %v, %v", m, err)
	}
	if ids, err := r.Sessions(); err != nil || len(ids) != 0 {
		t.Fatalf("Sessions on empty namespace = %v, %v", ids, err)
	}

	man := &Manifest{
		Seq:     7,
		Dataset: DatasetInfo{N: 3, Universe: "u", Hash: "fnv1a64:0000000000000001"},
		Source:  sample.State{},
	}
	if err := r.SaveManifest(man); err != nil {
		t.Fatal(err)
	}
	back, err := r.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if back.Seq != 7 || back.Dataset.Hash != man.Dataset.Hash {
		t.Fatalf("manifest did not round-trip: %+v", back)
	}

	st := testSessionState("s-000001")
	if err := r.SaveSession(st); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveSession(testSessionState("s-000002")); err != nil {
		t.Fatal(err)
	}
	got, err := r.LoadSession("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	var gotParams, wantParams map[string]float64
	if err := json.Unmarshal(got.Params, &gotParams); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(st.Params, &wantParams); err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID || got.Oracle != st.Oracle || gotParams["eps"] != wantParams["eps"] || gotParams["k"] != wantParams["k"] {
		t.Fatalf("session did not round-trip: %+v", got)
	}
	ids, err := r.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "s-000001" || ids[1] != "s-000002" {
		t.Fatalf("Sessions = %v", ids)
	}

	if err := r.DeleteSession("s-000001"); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteSession("s-000001"); err != nil {
		t.Fatalf("second delete not idempotent: %v", err)
	}
	if _, err := r.LoadSession("s-000001"); err == nil {
		t.Fatal("loaded a deleted session")
	}

	// A session with no log blob loads as no tail, and removing the
	// absent log succeeds.
	if recs, err := r.LoadWAL("s-000002"); err != nil || recs != nil {
		t.Errorf("LoadWAL = %v, %v", recs, err)
	}
	if err := r.RemoveWAL("s-000002"); err != nil {
		t.Errorf("RemoveWAL = %v", err)
	}

	// Hostile ids never reach the wire.
	if err := r.SaveSession(testSessionState("../escape")); err == nil {
		t.Error("hostile save id accepted")
	}
	if _, err := r.LoadSession("../escape"); err == nil {
		t.Error("hostile load id accepted")
	}
	if err := r.DeleteSession(""); err == nil {
		t.Error("empty delete id accepted")
	}
}

func TestRemoteNamespacesAreIsolated(t *testing.T) {
	bs, srv := testBlobServer(t)
	r1 := testRemote(t, srv, "r1")
	r2 := testRemote(t, srv, "r2")

	if err := r1.SaveManifest(&Manifest{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r1.SaveSession(testSessionState("s-000001")); err != nil {
		t.Fatal(err)
	}
	if m, err := r2.LoadManifest(); err != nil || m != nil {
		t.Fatalf("namespace r2 sees r1's manifest: %v, %v", m, err)
	}
	if ids, _ := r2.Sessions(); len(ids) != 0 {
		t.Fatalf("namespace r2 sees r1's sessions: %v", ids)
	}
	// The namespace is a plain subdirectory of the root — the state-dir
	// layout, one level down.
	if _, err := os.Stat(filepath.Join(bs.Root(), "r1", "session-s-000001.json")); err != nil {
		t.Errorf("blob not at the state-dir path: %v", err)
	}
}

func TestRemoteRetriesTransientFailures(t *testing.T) {
	bs, err := NewBlobServer(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := bs.Handler()
	var failures atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Load() > 0 {
			failures.Add(-1)
			http.Error(w, "injected outage", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	r := testRemote(t, srv, "r1")
	reg := obs.NewRegistry()
	r.Instrument(reg)

	failures.Store(2) // both attempts before the last fail
	if err := r.SaveSession(testSessionState("s-000001")); err != nil {
		t.Fatalf("save did not survive transient 5xx: %v", err)
	}
	failures.Store(1)
	if _, err := r.LoadSession("s-000001"); err != nil {
		t.Fatalf("load did not survive transient 5xx: %v", err)
	}

	// Retries exhausted: the last transport error surfaces.
	failures.Store(1000)
	if err := r.SaveSession(testSessionState("s-000002")); err == nil || !strings.Contains(err.Error(), "injected outage") {
		t.Fatalf("exhausted retries error = %v", err)
	}
	failures.Store(0)

	// The shared checkpoint counters and the retry counter moved.
	found := map[string]bool{}
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Samples {
			if s.Value > 0 || s.Count > 0 {
				found[fam.Name] = true
			}
		}
	}
	for _, want := range []string{"pmwcm_checkpoint_total", "pmwcm_store_retries_total", "pmwcm_store_request_seconds"} {
		if !found[want] {
			t.Errorf("metric %s did not move", want)
		}
	}
}

func TestRemoteVerifiesContentFingerprint(t *testing.T) {
	bs, err := NewBlobServer(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := bs.Handler()
	var mode atomic.Int32 // 0 = honest, 1 = corrupt body, 2 = strip header
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case 1:
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			body := rec.Body.Bytes()
			if len(body) > 0 && rec.Code == http.StatusOK {
				body[0] ^= 0xff
			}
			w.Write(body)
		case 2:
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		default:
			inner.ServeHTTP(w, r)
		}
	}))
	defer srv.Close()

	r := testRemote(t, srv, "r1")
	if err := r.SaveSession(testSessionState("s-000001")); err != nil {
		t.Fatal(err)
	}

	mode.Store(1)
	if _, err := r.LoadSession("s-000001"); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("corrupted body accepted: %v", err)
	}
	mode.Store(2)
	if _, err := r.LoadSession("s-000001"); err == nil || !strings.Contains(err.Error(), FingerprintHeader) {
		t.Fatalf("missing fingerprint header accepted: %v", err)
	}
	mode.Store(0)
	if _, err := r.LoadSession("s-000001"); err != nil {
		t.Fatalf("honest reload failed: %v", err)
	}
}

func TestOpenRemoteRejectsBadEndpoints(t *testing.T) {
	if _, err := OpenRemote("not a url", RemoteOptions{}); err == nil {
		t.Error("garbage URL accepted")
	}
	if _, err := OpenRemote("/no/host", RemoteOptions{}); err == nil {
		t.Error("hostless URL accepted")
	}
	// A live listener that is not a blob store: probe must fail.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer srv.Close()
	if _, err := OpenRemote(srv.URL+"/v1/stores/r1", RemoteOptions{Backoff: time.Millisecond}); err == nil {
		t.Error("non-store endpoint accepted")
	}
	// A dead endpoint: probe must fail after retries, quickly.
	srv2 := httptest.NewServer(http.NewServeMux())
	srv2.Close()
	if _, err := OpenRemote(srv2.URL+"/v1/stores/r1", RemoteOptions{Backoff: time.Millisecond}); err == nil {
		t.Error("dead endpoint accepted")
	}
}

func TestRemoteRejectsWrongIDBlob(t *testing.T) {
	_, srv := testBlobServer(t)
	r := testRemote(t, srv, "r1")
	// Write a blob whose enclosed state carries a different id than its
	// name — e.g. an operator copying blobs around by hand.
	st := testSessionState("s-000009")
	data, err := Encode(FormatSession, st)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/stores/r1/blobs/session-s-000001.json", strings.NewReader(string(data)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := r.LoadSession("s-000001"); err == nil || !strings.Contains(err.Error(), "carries id") {
		t.Fatalf("mismatched blob id accepted: %v", err)
	}
}

func TestBlobServerValidatesPaths(t *testing.T) {
	_, srv := testBlobServer(t)
	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{http.MethodGet, "/v1/stores/bad%20ns/blobs", http.StatusBadRequest},
		{http.MethodGet, "/v1/stores/r1/blobs/.hidden", http.StatusBadRequest},
		{http.MethodPut, "/v1/stores/r1/blobs/bad%20name", http.StatusBadRequest},
		{http.MethodDelete, "/v1/stores/bad%20ns/blobs/x", http.StatusBadRequest},
		{http.MethodPost, "/v1/stores/bad%20ns/blobs/x.wal?at=0", http.StatusBadRequest},
		{http.MethodPost, "/v1/stores/r1/blobs/.hidden?at=0", http.StatusBadRequest},
		{http.MethodGet, "/v1/stores/r1/blobs/absent.json", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("%s %s: non-JSON error body: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		if doc["error"] == "" {
			t.Errorf("%s %s: missing typed error message", tc.method, tc.path)
		}
	}
}

func TestBlobServerListSkipsTempAndDirs(t *testing.T) {
	bs, srv := testBlobServer(t)
	r := testRemote(t, srv, "r1")
	if err := r.SaveManifest(&Manifest{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-PUT (stale temp file) and a nested directory.
	if err := os.WriteFile(filepath.Join(bs.Root(), "r1", tmpPrefix+"zzz"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(bs.Root(), "r1", "nested"), 0o755); err != nil {
		t.Fatal(err)
	}
	names, err := r.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != manifestFile {
		t.Fatalf("list = %v, want [%s]", names, manifestFile)
	}
}

func TestFingerprint64(t *testing.T) {
	a := Fingerprint64([]byte("hello"))
	b := Fingerprint64([]byte("hello"))
	c := Fingerprint64([]byte("hello!"))
	if a != b {
		t.Errorf("fingerprint not deterministic: %s != %s", a, b)
	}
	if a == c {
		t.Error("distinct contents share a fingerprint")
	}
	if !strings.HasPrefix(a, "fnv1a64:") || len(a) != len("fnv1a64:")+16 {
		t.Errorf("unexpected fingerprint shape %q", a)
	}
}

func TestValidateIDExport(t *testing.T) {
	if err := ValidateID("s-000001"); err != nil {
		t.Errorf("valid id rejected: %v", err)
	}
	for _, bad := range []string{"", ".dot", "a/b", strings.Repeat("x", 129)} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) accepted", bad)
		}
	}
}

// TestStoreImplementsBackend pins the interface conformance of the
// state-dir store and its adapter methods.
func TestStoreImplementsBackend(t *testing.T) {
	dir := t.TempDir()
	var b Backend
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b = s
	if b.Location() != dir {
		t.Errorf("Location() = %q, want %q", b.Location(), dir)
	}
}
