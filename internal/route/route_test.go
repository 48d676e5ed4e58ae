package route

// route_test.go drives the router end-to-end against real service
// managers (each over its own namespace of one shared blob store, as the
// fleet deploys them): placement determinism, create pinning, follow-the-
// pin forwarding, typed 503s with Retry-After for down replicas, the
// store-fallback transcript read, and the routing metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/sample"
	"repro/internal/service"
	"repro/internal/universe"
)

// testFleet is a blob store plus N replicas behind one router.
type testFleet struct {
	router   http.Handler
	rt       *Router
	replicas map[string]*httptest.Server
	managers map[string]*service.Manager
	storeURL string
}

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	g, err := universe.NewLabeledGrid(2, 3, 1.0, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := dataset.Skewed(g, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.SampleFrom(sample.New(1), pop, 5000)
}

// seqIDSource replaces crypto randomness with a deterministic counter so
// placement-sensitive tests are reproducible.
func seqIDSource() func(n int) ([]byte, error) {
	var ctr uint64
	return func(n int) ([]byte, error) {
		ctr++
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(ctr >> (8 * (uint(n-1-i) % 8)))
		}
		return b, nil
	}
}

// newFleet stands up a shared blob store, n remote-backed replicas, and a
// router over them. Replica managers checkpoint every session into the
// store under their own namespace — exactly the -store-url deployment.
func newFleet(t *testing.T, n int, reg *obs.Registry) *testFleet {
	t.Helper()
	bs, err := persist.NewBlobServer(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	storeSrv := httptest.NewServer(bs.Handler())
	t.Cleanup(storeSrv.Close)

	f := &testFleet{
		replicas: map[string]*httptest.Server{},
		managers: map[string]*service.Manager{},
		storeURL: storeSrv.URL,
	}
	var reps []Replica
	data := testData(t)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i+1)
		remote, err := persist.OpenRemote(storeSrv.URL+"/v1/stores/"+name, persist.RemoteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := service.New(service.Config{
			Data:     data,
			Source:   sample.New(int64(100 + i)),
			Defaults: service.SessionParams{Eps: 1, Delta: 1e-6, Alpha: 0.1, K: 30, TBudget: 6},
			Store:    remote,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(service.NewHandler(mgr))
		t.Cleanup(srv.Close)
		t.Cleanup(mgr.Shutdown)
		f.replicas[name] = srv
		f.managers[name] = mgr
		reps = append(reps, Replica{Name: name, URL: srv.URL})
	}
	rt, err := New(reps, Options{
		RetryAfter: 200 * time.Millisecond,
		CoolDown:   200 * time.Millisecond,
		StoreURL:   storeSrv.URL,
		Metrics:    reg,
		IDSource:   seqIDSource(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	f.router = rt.Handler()
	return f
}

// doReq runs one request through the router handler and decodes the JSON
// reply into out (when non-nil).
func doReq(t *testing.T, h http.Handler, method, path string, body any, out any) (*httptest.ResponseRecorder, int) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 500 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec, rec.Code
}

func TestParseReplicas(t *testing.T) {
	reps, err := ParseReplicas("r1=http://h1:8787, r2=http://h2:8787")
	if err != nil || len(reps) != 2 || reps[0].Name != "r1" || reps[1].URL != "http://h2:8787" {
		t.Fatalf("parse: %v %+v", err, reps)
	}
	for _, bad := range []string{"", "r1", "=http://h", "r1=", "r1=:junk", "r1=http://h,r1=http://h2", "a/b=http://h"} {
		if _, err := ParseReplicas(bad); err == nil {
			t.Errorf("spec %q was accepted", bad)
		}
	}
}

// TestRingPlacement pins the placement function: deterministic across
// router instances (the stateless-restart property) and non-degenerate
// (every replica owns a meaningful shard).
func TestRingPlacement(t *testing.T) {
	reps := []Replica{
		{Name: "r1", URL: "http://h1:1"},
		{Name: "r2", URL: "http://h2:1"},
		{Name: "r3", URL: "http://h3:1"},
	}
	a, err := New(reps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(reps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		id := fmt.Sprintf("rt-%012x", i)
		oa, ob := a.owner(id), b.owner(id)
		if oa.name != ob.name {
			t.Fatalf("id %s: router A places on %s, router B on %s", id, oa.name, ob.name)
		}
		counts[oa.name]++
	}
	for _, r := range reps {
		if counts[r.Name] < 300 {
			t.Fatalf("degenerate ring: shard sizes %v", counts)
		}
	}
}

// TestRouterEndToEnd drives a session's whole life through the router:
// create (router-minted id), placement debug, query, status, list,
// transcript, close — each request landing on the session's pinned
// replica.
func TestRouterEndToEnd(t *testing.T) {
	f := newFleet(t, 3, nil)

	var created struct {
		ID string `json:"id"`
	}
	if _, code := doReq(t, f.router, "POST", "/v1/sessions", nil, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if !strings.HasPrefix(created.ID, "rt-") || len(created.ID) != len("rt-")+12 {
		t.Fatalf("router-minted id %q", created.ID)
	}

	var place struct {
		Replica string `json:"replica"`
		Up      bool   `json:"up"`
	}
	if _, code := doReq(t, f.router, "GET", "/v1/route/"+created.ID, nil, &place); code != 200 || !place.Up {
		t.Fatalf("route debug: %d %+v", code, place)
	}
	if f.managers[place.Replica] == nil {
		t.Fatalf("unknown owner %q", place.Replica)
	}
	if got := f.managers[place.Replica].OpenSessions(); got != 1 {
		t.Fatalf("owner %s reports %d open sessions, want 1", place.Replica, got)
	}

	spec := map[string]any{"kind": "positive", "params": map[string]any{"coord": 0}}
	var qres struct {
		Answer []float64 `json:"answer"`
	}
	if _, code := doReq(t, f.router, "POST", "/v1/sessions/"+created.ID+"/query", spec, &qres); code != 200 {
		t.Fatalf("query via router: status %d", code)
	}
	if len(qres.Answer) == 0 {
		t.Fatal("query via router: empty answer")
	}

	var status struct {
		QueriesUsed int `json:"queries_used"`
	}
	if _, code := doReq(t, f.router, "GET", "/v1/sessions/"+created.ID, nil, &status); code != 200 || status.QueriesUsed != 1 {
		t.Fatalf("status via router: %d %+v", code, status)
	}

	var listing struct {
		Sessions []map[string]any `json:"sessions"`
	}
	if _, code := doReq(t, f.router, "GET", "/v1/sessions", nil, &listing); code != 200 {
		t.Fatalf("list via router: %d", code)
	}
	if len(listing.Sessions) != 1 || listing.Sessions[0]["replica"] != place.Replica {
		t.Fatalf("merged listing %+v, want one session annotated with %s", listing.Sessions, place.Replica)
	}

	var tr struct {
		ID   string `json:"id"`
		Tops int    `json:"tops"`
	}
	if _, code := doReq(t, f.router, "GET", "/v1/sessions/"+created.ID+"/transcript", nil, &tr); code != 200 || tr.ID != created.ID {
		t.Fatalf("transcript via router: %d %+v", code, tr)
	}

	if _, code := doReq(t, f.router, "DELETE", "/v1/sessions/"+created.ID, nil, nil); code != 200 {
		t.Fatalf("close via router: %d", code)
	}
	if got := f.managers[place.Replica].OpenSessions(); got != 0 {
		t.Fatalf("owner still reports %d open sessions after close", got)
	}
}

// TestRouterPinnedCreate: a caller-supplied id is honored and placed by
// the same hash every component agrees on.
func TestRouterPinnedCreate(t *testing.T) {
	f := newFleet(t, 3, nil)
	var created struct {
		ID string `json:"id"`
	}
	if _, code := doReq(t, f.router, "POST", "/v1/sessions", map[string]any{"id": "my-pinned-id"}, &created); code != http.StatusCreated {
		t.Fatalf("pinned create: status %d", code)
	}
	if created.ID != "my-pinned-id" {
		t.Fatalf("created id %q, want the pinned one", created.ID)
	}
	owner := f.rt.owner("my-pinned-id").name
	if got := f.managers[owner].OpenSessions(); got != 1 {
		t.Fatalf("hash owner %s reports %d sessions", owner, got)
	}
	// A duplicate pinned create surfaces the replica's 409 verbatim.
	if rec, code := doReq(t, f.router, "POST", "/v1/sessions", map[string]any{"id": "my-pinned-id"}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate pinned create: %d %s", code, rec.Body.String())
	}
}

// TestRouterDownReplica is the failure-domain contract: killing one
// replica 503s exactly its shard (typed body + Retry-After), leaves other
// shards serving, routes new sessions around the hole, and keeps the dead
// shard's transcripts readable from the shared store.
func TestRouterDownReplica(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFleet(t, 3, reg)

	// One session per shard, each with one answered query so transcripts
	// are non-trivial, plus a checkpoint (the remote backend checkpoints
	// on create and on ⊤ answers; a forced snapshot pins the final state
	// regardless of the ⊥/⊤ pattern).
	shardSession := map[string]string{}
	for len(shardSession) < 3 {
		var created struct {
			ID string `json:"id"`
		}
		if _, code := doReq(t, f.router, "POST", "/v1/sessions", nil, &created); code != http.StatusCreated {
			t.Fatalf("create: %d", code)
		}
		spec := map[string]any{"kind": "positive", "params": map[string]any{"coord": 0}}
		if _, code := doReq(t, f.router, "POST", "/v1/sessions/"+created.ID+"/query", spec, nil); code != 200 {
			t.Fatalf("query: %d", code)
		}
		if _, code := doReq(t, f.router, "POST", "/v1/sessions/"+created.ID+"/snapshot", nil, nil); code != 200 {
			t.Fatalf("snapshot: %d", code)
		}
		shardSession[f.rt.owner(created.ID).name] = created.ID
	}

	// Kill r2 the hard way.
	victim := "r2"
	f.replicas[victim].Close()

	// Its shard fails with the typed 503 and Retry-After…
	deadID := shardSession[victim]
	rec, code := doReq(t, f.router, "GET", "/v1/sessions/"+deadID, nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead shard status: %d, want 503", code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var e struct {
		Error   string `json:"error"`
		Replica string `json:"replica"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Replica != victim || !strings.Contains(e.Error, victim) {
		t.Fatalf("503 body %s, want typed error naming %s", rec.Body.String(), victim)
	}
	// …and the cool-down fails fast without re-dialing.
	if _, code := doReq(t, f.router, "GET", "/v1/sessions/"+deadID, nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("cooled-down shard status: %d, want 503", code)
	}

	// Other shards are untouched.
	for name, id := range shardSession {
		if name == victim {
			continue
		}
		if _, code := doReq(t, f.router, "GET", "/v1/sessions/"+id, nil, nil); code != 200 {
			t.Fatalf("live shard %s: status %d", name, code)
		}
	}

	// New sessions avoid the dead shard (placement stays honest: every
	// minted id's *hash* owner is an up replica).
	for i := 0; i < 20; i++ {
		var created struct {
			ID string `json:"id"`
		}
		if _, code := doReq(t, f.router, "POST", "/v1/sessions", nil, &created); code != http.StatusCreated {
			t.Fatalf("create during outage: %d", code)
		}
		if owner := f.rt.owner(created.ID).name; owner == victim {
			t.Fatalf("new session %s landed on the dead replica", created.ID)
		}
	}

	// The dead shard's transcript is still readable — served from the
	// session's last checkpoint in the shared blob store.
	var tr struct {
		ID       string  `json:"id"`
		Tops     int     `json:"tops"`
		EpsBound float64 `json:"eps_bound"`
	}
	rec, code = doReq(t, f.router, "GET", "/v1/sessions/"+deadID+"/transcript", nil, &tr)
	if code != 200 {
		t.Fatalf("store-fallback transcript: %d %s", code, rec.Body.String())
	}
	if rec.Header().Get("X-Pmwcm-Transcript-Source") != "store" {
		t.Fatal("fallback transcript not marked as store-served")
	}
	if tr.ID != deadID || tr.EpsBound <= 0 {
		t.Fatalf("fallback transcript %+v", tr)
	}

	// Metrics: the victim's up-gauge reads 0, the others 1, and error
	// requests were counted against the victim.
	up := map[string]float64{}
	var errReqs float64
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Samples {
			switch fam.Name {
			case "pmwcm_route_replica_up":
				up[s.Labels["replica"]] = s.Value
			case "pmwcm_route_requests_total":
				if s.Labels["replica"] == victim && s.Labels["class"] == "error" {
					errReqs = s.Value
				}
			}
		}
	}
	if up[victim] != 0 || up["r1"] != 1 || up["r3"] != 1 {
		t.Fatalf("replica_up gauges %v", up)
	}
	if errReqs == 0 {
		t.Fatal("no transport errors counted against the dead replica")
	}
}

// TestRouterCatalogAndHealth covers the replica-agnostic endpoints and
// the router's own health surface.
func TestRouterCatalogAndHealth(t *testing.T) {
	f := newFleet(t, 2, nil)
	var losses struct {
		Kinds []string `json:"kinds"`
	}
	if _, code := doReq(t, f.router, "GET", "/v1/losses", nil, &losses); code != 200 || len(losses.Kinds) == 0 {
		t.Fatalf("losses via router: %d %+v", code, losses)
	}
	var health struct {
		OK         bool             `json:"ok"`
		Role       string           `json:"role"`
		Replicas   []map[string]any `json:"replicas"`
		ReplicasUp int              `json:"replicas_up"`
	}
	if _, code := doReq(t, f.router, "GET", "/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if !health.OK || health.Role != "router" || len(health.Replicas) != 2 || health.ReplicasUp != 2 {
		t.Fatalf("healthz %+v", health)
	}
}

// lockedBuffer is a log sink the replica's server goroutine writes while
// the test goroutine reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// requestIDs returns the request_id of every JSON log line written so far.
func (b *lockedBuffer) requestIDs(t *testing.T) []string {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var ids []string
	dec := json.NewDecoder(bytes.NewReader(b.buf.Bytes()))
	for dec.More() {
		var line struct {
			RequestID string `json:"request_id"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, line.RequestID)
	}
	return ids
}

// TestRequestIDJoinsRouterAndReplicaLogs wraps both hops in the logging
// middleware, as the pmwcm route and serve commands deploy them: the id
// the router assigns to a request must reach the replica with the
// forwarded request, so both log lines carry the same request_id.
func TestRequestIDJoinsRouterAndReplicaLogs(t *testing.T) {
	mgr, err := service.New(service.Config{Data: testData(t), Source: sample.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Shutdown)
	var repLog, rtLog lockedBuffer
	replica := httptest.NewServer(obs.Middleware(obs.NewRegistry(), service.NewHandler(mgr),
		obs.MiddlewareOptions{Logger: slog.New(slog.NewJSONHandler(&repLog, nil))}))
	t.Cleanup(replica.Close)
	rt, err := New([]Replica{{Name: "r1", URL: replica.URL}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := obs.Middleware(obs.NewRegistry(), rt.Handler(),
		obs.MiddlewareOptions{Logger: slog.New(slog.NewJSONHandler(&rtLog, nil))})

	// No incoming id: the router generates one and must forward it.
	rec, code := doReq(t, h, "POST", "/v1/sessions", map[string]any{}, nil)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, rec.Body.String())
	}
	id := rec.Header().Get(obs.RequestIDHeader)
	if id == "" {
		t.Fatal("router response carries no request id")
	}
	if got := rtLog.requestIDs(t); len(got) != 1 || got[0] != id {
		t.Fatalf("router logged request ids %v, want [%s]", got, id)
	}
	if got := repLog.requestIDs(t); len(got) != 1 || got[0] != id {
		t.Fatalf("replica logged request ids %v, want [%s]", got, id)
	}
}

// TestRouterStoreTranscriptIncludesLogTail: the owner dies right after a
// ⊤, with no snapshot since creation — every spend lives only in its log.
// The store-served transcript must report exactly the tops and eps_bound
// the owner last served, which it can only do by reading the log tail.
func TestRouterStoreTranscriptIncludesLogTail(t *testing.T) {
	f := newFleet(t, 2, obs.NewRegistry())
	var created struct {
		ID string `json:"id"`
	}
	if _, code := doReq(t, f.router, "POST", "/v1/sessions", nil, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	id := created.ID
	for i := 0; ; i++ {
		if i == 20 {
			t.Fatal("no ⊤ answer in 20 distinct queries")
		}
		spec := map[string]any{"kind": "logistic", "params": map[string]any{"temp": 0.4 + 0.01*float64(i)}}
		var res struct {
			Top bool `json:"top"`
		}
		if _, code := doReq(t, f.router, "POST", "/v1/sessions/"+id+"/query", spec, &res); code != 200 {
			t.Fatalf("query %d: %d", i, code)
		}
		if res.Top {
			break
		}
	}
	type record struct {
		Tops     int     `json:"tops"`
		EpsBound float64 `json:"eps_bound"`
	}
	var live record
	if _, code := doReq(t, f.router, "GET", "/v1/sessions/"+id+"/transcript", nil, &live); code != 200 {
		t.Fatalf("live transcript: %d", code)
	}
	if live.Tops == 0 {
		t.Fatal("owner served no ⊤; the test is vacuous")
	}

	f.replicas[f.rt.owner(id).name].Close()
	var stored record
	rec, code := doReq(t, f.router, "GET", "/v1/sessions/"+id+"/transcript", nil, &stored)
	if code != 200 || rec.Header().Get("X-Pmwcm-Transcript-Source") != "store" {
		t.Fatalf("store-fallback transcript: %d %s", code, rec.Body.String())
	}
	if stored != live {
		t.Fatalf("store-served transcript %+v, owner last served %+v", stored, live)
	}
}
