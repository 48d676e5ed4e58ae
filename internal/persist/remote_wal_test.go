package persist

// remote_wal_test.go covers the write-ahead log over the blob store: the
// server's conditional append (409 on a size mismatch, 200 without a
// second write on a retried append, 413 past the cap), and a remote
// store's WAL surface on top of it — round trip, lost-ack retries, sticky
// sync failure healed by Reset, torn-tail heal, and idempotent removal.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// blobAppend posts body to a blob at offset at and returns the status.
func blobAppend(t *testing.T, srv *httptest.Server, name, at string, body []byte) int {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/stores/r1/blobs/"+name+"?at="+at, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestBlobAppendConditional(t *testing.T) {
	bs, srv := testBlobServer(t)
	path := filepath.Join(bs.Root(), "r1", "log.wal")
	read := func() string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	if got := blobAppend(t, srv, "log.wal", "3", []byte("abc")); got != http.StatusConflict {
		t.Fatalf("append at 3 to an absent blob = %d, want 409", got)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused append created the blob: %v", err)
	}
	if got := blobAppend(t, srv, "log.wal", "0", []byte("abc")); got != http.StatusOK {
		t.Fatalf("append at 0 = %d", got)
	}
	if got := blobAppend(t, srv, "log.wal", "3", []byte("def")); got != http.StatusOK {
		t.Fatalf("append at 3 = %d", got)
	}
	// A lost ack: the same bytes at the same offset are acknowledged
	// again, and the blob is unchanged.
	if got := blobAppend(t, srv, "log.wal", "3", []byte("def")); got != http.StatusOK {
		t.Fatalf("retried append = %d, want 200", got)
	}
	if got := read(); got != "abcdef" {
		t.Fatalf("blob after retried append = %q, want %q", got, "abcdef")
	}
	// Any other mismatch conflicts: a stale offset with different bytes, a
	// gap past the end, or a retry longer than what the blob holds.
	for _, tc := range []struct{ at, body string }{{"3", "xyz"}, {"7", "g"}, {"3", "defg"}} {
		if got := blobAppend(t, srv, "log.wal", tc.at, []byte(tc.body)); got != http.StatusConflict {
			t.Errorf("append %q at %s = %d, want 409", tc.body, tc.at, got)
		}
	}
	if got := blobAppend(t, srv, "log.wal", fmt.Sprint(maxBlobBytes-2), []byte("xyz")); got != http.StatusRequestEntityTooLarge {
		t.Errorf("append past the cap = %d, want 413", got)
	}
	for _, at := range []string{"", "-1", "x"} {
		if got := blobAppend(t, srv, "log.wal", at, []byte("g")); got != http.StatusBadRequest {
			t.Errorf("append at %q = %d, want 400", at, got)
		}
	}
	if got := read(); got != "abcdef" {
		t.Fatalf("refused appends changed the blob to %q", got)
	}
}

func TestRemoteWALRoundTrip(t *testing.T) {
	bs, srv := testBlobServer(t)
	r := testRemote(t, srv, "r1")
	reg := obs.NewRegistry()
	r.Instrument(reg)
	const id = "s-000001"

	w, err := r.OpenWAL(id)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 5; seq++ {
		if err := w.Append(walEvent(seq)); err != nil {
			t.Fatal(err)
		}
		if seq%2 == 1 {
			// Syncs at 1, 3, 5: the first PUTs header and record, the others
			// append.
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if w.Records() != 5 {
		t.Fatalf("Records() = %d, want 5", w.Records())
	}
	recs, err := r.LoadWAL(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[4].Seq != 5 {
		t.Fatalf("remote log = %d records, want 5", len(recs))
	}
	// The namespace is a state directory: the same bytes parse as a log
	// file there.
	st, err := Open(filepath.Join(bs.Root(), "r1"))
	if err != nil {
		t.Fatal(err)
	}
	if fileRecs, err := st.LoadWAL(id); err != nil || len(fileRecs) != 5 {
		t.Fatalf("namespace log as a state-dir file = %d records, %v", len(fileRecs), err)
	}

	// Reset leaves a header-only log that later appends extend.
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walEvent(6)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if recs, err = r.LoadWAL(id); err != nil || len(recs) != 1 || recs[0].Seq != 6 {
		t.Fatalf("log after reset = %+v, %v", recs, err)
	}

	// A fresh handle replaces the (record-free past the snapshot) blob on
	// its first sync instead of appending to it.
	w2, err := r.OpenWAL(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(walEvent(7)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	if recs, err = r.LoadWAL(id); err != nil || len(recs) != 1 || recs[0].Seq != 7 {
		t.Fatalf("log after reopen = %+v, %v", recs, err)
	}

	// Removal is idempotent.
	for i := 0; i < 2; i++ {
		if err := r.RemoveWAL(id); err != nil {
			t.Fatalf("RemoveWAL #%d: %v", i+1, err)
		}
	}
	if recs, err := r.LoadWAL(id); err != nil || recs != nil {
		t.Fatalf("log after removal = %v, %v", recs, err)
	}
	for _, bad := range []string{"../evil", ""} {
		if _, err := r.OpenWAL(bad); err == nil {
			t.Errorf("OpenWAL(%q) accepted", bad)
		}
		if _, err := r.LoadWAL(bad); err == nil {
			t.Errorf("LoadWAL(%q) accepted", bad)
		}
		if err := r.RemoveWAL(bad); err == nil {
			t.Errorf("RemoveWAL(%q) accepted", bad)
		}
	}

	found := map[string]bool{}
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Samples {
			if s.Value > 0 {
				found[fam.Name] = true
			}
		}
	}
	for _, want := range []string{"pmwcm_wal_records_total", "pmwcm_wal_bytes_total", "pmwcm_wal_compactions_total", "pmwcm_checkpoint_total"} {
		if !found[want] {
			t.Errorf("metric %s did not move", want)
		}
	}
}

// TestRemoteWALLostAckRetry drops the response of an append the server
// committed: the client's retry is acknowledged without a second write, so
// the record is in the log exactly once.
func TestRemoteWALLostAckRetry(t *testing.T) {
	bs, err := NewBlobServer(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := bs.Handler()
	var dropAcks atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && dropAcks.Load() > 0 {
			dropAcks.Add(-1)
			inner.ServeHTTP(httptest.NewRecorder(), r) // committed, ack lost
			http.Error(w, "ack lost", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	r := testRemote(t, srv, "r1")
	const id = "s-000001"
	w, err := r.OpenWAL(id)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if seq == 2 {
			dropAcks.Store(1)
		}
		if err := w.Append(walEvent(seq)); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatalf("sync %d: %v", seq, err)
		}
	}
	recs, err := r.LoadWAL(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("log holds %d records after a lost-ack retry, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != i+1 {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
}

// TestRemoteWALSyncFailureIsSticky: once a sync fails the blob may lack
// records later syncs would not resend, so every sync fails until a Reset
// rewrites the log.
func TestRemoteWALSyncFailureIsSticky(t *testing.T) {
	bs, err := NewBlobServer(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := bs.Handler()
	var down atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "store down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	r := testRemote(t, srv, "r1")
	w, err := r.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walEvent(1)); err != nil {
		t.Fatal(err)
	}
	down.Store(true)
	if err := w.Sync(); err == nil {
		t.Fatal("sync against a down store succeeded")
	}
	down.Store(false)
	if err := w.Append(walEvent(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync after a failed sync succeeded without a reset")
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walEvent(3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync after reset: %v", err)
	}
	recs, err := r.LoadWAL("s-000001")
	if err != nil || len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("log after healing = %+v, %v", recs, err)
	}
}

// TestRemoteWALTornTailHeal: a log blob ending mid-frame loads as its
// clean prefix, and the blob is cut back to it so appends resume on a
// frame boundary.
func TestRemoteWALTornTailHeal(t *testing.T) {
	bs, srv := testBlobServer(t)
	r := testRemote(t, srv, "r1")
	reg := obs.NewRegistry()
	r.Instrument(reg)
	const id = "s-000001"
	w, err := r.OpenWAL(id)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 2; seq++ {
		if err := w.Append(walEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(bs.Root(), "r1", walName(id))
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte(nil), clean...), 0x20, 0, 0, 0, 1, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := r.LoadWAL(id)
	if err != nil || len(recs) != 2 {
		t.Fatalf("torn log = %d records, %v; want the 2 before the tear", len(recs), err)
	}
	if healed, _ := os.ReadFile(path); !bytes.Equal(healed, clean) {
		t.Fatalf("torn tail not cut back: %d bytes, want %d", len(healed), len(clean))
	}
	var truncations float64
	for _, fam := range reg.Snapshot() {
		if fam.Name == "pmwcm_wal_truncations_total" {
			truncations = fam.Samples[0].Value
		}
	}
	if truncations != 1 {
		t.Fatalf("pmwcm_wal_truncations_total = %v, want 1", truncations)
	}
	// Another session's log is refused, not truncated away.
	if err := os.WriteFile(path, headerFrame("s-000002"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadWAL(id); err == nil {
		t.Fatal("foreign log accepted")
	}
}

// TestRemoteRefusesOversizedBodies: a body past the blob cap fails fast
// with an explicit error, before any request is made.
func TestRemoteRefusesOversizedBodies(t *testing.T) {
	bs, err := NewBlobServer(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := bs.Handler()
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	r := testRemote(t, srv, "r1")
	before := requests.Load()
	h := r.t.(*httpTransport)
	_, err = h.do(http.MethodPut, h.blobURL("big"), make([]byte, maxBlobBytes+1), false)
	if err == nil || !strings.Contains(err.Error(), "blob cap") {
		t.Fatalf("oversized body error = %v", err)
	}
	if got := requests.Load() - before; got != 0 {
		t.Fatalf("oversized body made %d requests, want 0", got)
	}
}

// TestBlobServerWriteFaults drives every blob-server write through an
// injected filesystem fault: a write the fault hits must answer 500 and
// leave the blob as it was — a failed append is cut back to its offset, so the
// client's retry finds the blob where it left it.
func TestBlobServerWriteFaults(t *testing.T) {
	root := t.TempDir()
	clean, err := NewBlobServer(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	clean.Instrument(reg)
	cleanSrv := httptest.NewServer(clean.Handler())
	defer cleanSrv.Close()
	const blob = "/v1/stores/r1/blobs/log.wal"
	do := func(srv *httptest.Server, method, path, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := do(cleanSrv, http.MethodPut, blob, "abc"); got != http.StatusOK {
		t.Fatalf("seed PUT = %d", got)
	}

	for _, kind := range []string{fault.OpMkdir, fault.OpOpen, fault.OpCreate, fault.OpWrite, fault.OpSync, fault.OpRename, fault.OpRemove} {
		// Op 0 is the constructor's MkdirAll; every later op of the kind
		// fails, writes with one torn byte landing first.
		plan := fault.NewPlan(fault.Fault{Op: -1, Kind: kind, After: 1, Mode: fault.ModeTorn, Bytes: 1})
		bs, err := NewBlobServer(root, fault.Wrap(fault.OS, plan))
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(bs.Handler())
		put := do(srv, http.MethodPut, blob, "xyz")
		appended := do(srv, http.MethodPost, blob+"?at=3", "def")
		want := "abc"
		if put == http.StatusOK {
			want = "xyz"
		}
		if appended == http.StatusOK {
			want += "def"
		}
		if data, err := os.ReadFile(filepath.Join(root, "r1", "log.wal")); err != nil || string(data) != want {
			t.Fatalf("%s fault: blob holds %q, %v; want %q (failed writes change nothing)", kind, data, err, want)
		}
		deleted := do(srv, http.MethodDelete, blob, "")
		srv.Close()
		if plan.Fired() == 0 {
			t.Fatalf("%s fault never fired", kind)
		}
		failed := 0
		for _, got := range []int{put, appended, deleted} {
			if got == http.StatusInternalServerError {
				failed++
			}
		}
		if failed == 0 {
			t.Errorf("%s fault: put %d, append %d, delete %d; want a 500", kind, put, appended, deleted)
		}
		if got := do(cleanSrv, http.MethodPut, blob, "abc"); got != http.StatusOK {
			t.Fatalf("re-seed PUT = %d", got)
		}
	}

	// Reads that hit something other than a blob fail as 500, not 404.
	if err := os.MkdirAll(filepath.Join(root, "r1", "adir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if got := do(cleanSrv, http.MethodGet, "/v1/stores/r1/blobs/adir", ""); got != http.StatusInternalServerError {
		t.Errorf("GET of a directory = %d, want 500", got)
	}
	if err := os.WriteFile(filepath.Join(root, "afile"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := do(cleanSrv, http.MethodGet, "/v1/stores/afile/blobs", ""); got != http.StatusInternalServerError {
		t.Errorf("list of a non-directory namespace = %d, want 500", got)
	}
	if got := do(cleanSrv, http.MethodGet, blob, ""); got != http.StatusOK {
		t.Fatalf("GET = %d", got)
	}
	if got := do(cleanSrv, http.MethodGet, "/v1/stores/r1/blobs", ""); got != http.StatusOK {
		t.Fatalf("list = %d", got)
	}
	if got := do(cleanSrv, http.MethodPost, blob+"?at=3", "def"); got != http.StatusOK {
		t.Fatalf("append = %d", got)
	}
	if got := do(cleanSrv, http.MethodDelete, blob, ""); got != http.StatusOK {
		t.Fatalf("delete = %d", got)
	}
	ops := map[string]float64{}
	for _, fam := range reg.Snapshot() {
		if fam.Name != "pmwcm_blob_requests_total" {
			continue
		}
		for _, s := range fam.Samples {
			ops[s.Labels["op"]] = s.Value
		}
	}
	for _, op := range []string{"get", "put", "append", "delete", "list"} {
		if ops[op] < 1 {
			t.Errorf("pmwcm_blob_requests_total{op=%q} = %v, want >= 1", op, ops[op])
		}
	}
}

// halfWriteFS passes through to the real filesystem, except that once
// armed the next file Write lands half its bytes, signals landed, and
// blocks until release before writing the rest — an append caught
// mid-write.
type halfWriteFS struct {
	fault.FS
	armed   atomic.Bool
	landed  chan struct{}
	release chan struct{}
}

func (h *halfWriteFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return halfWriteFile{File: f, fs: h}, nil
}

type halfWriteFile struct {
	fault.File
	fs *halfWriteFS
}

func (f halfWriteFile) Write(p []byte) (int, error) {
	if !f.fs.armed.CompareAndSwap(true, false) {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	close(f.fs.landed)
	<-f.fs.release
	m, err := f.File.Write(p[len(p)/2:])
	return n + m, err
}

// TestBlobGetNeverSeesTornAppend: a GET racing an append must return the
// blob before or after it, never the half that has landed. A torn read
// would make the router's store fallback "heal" the log with a PUT that
// replaces the file under the append still writing to it.
func TestBlobGetNeverSeesTornAppend(t *testing.T) {
	hfs := &halfWriteFS{FS: fault.OS, landed: make(chan struct{}), release: make(chan struct{})}
	bs, err := NewBlobServer(t.TempDir(), hfs)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(bs.Handler())
	defer srv.Close()
	const blob = "/v1/stores/r1/blobs/log.wal"
	pre, tail := "header|", "record-one|"
	if got := blobAppend(t, srv, "log.wal", "0", []byte(pre)); got != http.StatusOK {
		t.Fatalf("seed append = %d", got)
	}

	hfs.armed.Store(true)
	appended := make(chan int, 1)
	go func() { appended <- blobAppend(t, srv, "log.wal", fmt.Sprint(len(pre)), []byte(tail)) }()
	<-hfs.landed
	read := make(chan string, 1)
	go func() {
		resp, err := http.Get(srv.URL + blob)
		if err != nil {
			read <- err.Error()
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		read <- buf.String()
	}()
	// Give the GET time to reach the server while the append is half
	// written, then let the append finish.
	time.Sleep(50 * time.Millisecond)
	close(hfs.release)
	if got := <-appended; got != http.StatusOK {
		t.Fatalf("append = %d", got)
	}
	if got := <-read; got != pre && got != pre+tail {
		t.Fatalf("GET during an append returned %q, want %q or %q", got, pre, pre+tail)
	}
}
