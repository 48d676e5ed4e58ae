// BlobServer is the serving side of OpenRemote's store, spoken over HTTP
// by `pmwcm store`: one process holds a whole fleet's state, each serve
// replica in its own namespace (a subdirectory), so replicas never collide
// on manifest.json while an operator still backs up one flat tree.
//
// Each namespace is kept through the state dir's own transport (dir.go):
// atomic replaces, idempotent deletes, lists without temp files, and a
// sweep of the temp files a crash mid-PUT left behind. Only the
// conditional append is the server's own. Reads stamp a content
// fingerprint header, and names pass the session-id character set, so a
// request can never escape the root directory.
package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
)

// maxBlobBytes caps a single blob (and a remote store's response body).
// Session state grows with the transcript; 64 MiB is ~two orders of
// magnitude above the largest state the load tests produce.
const maxBlobBytes = 64 << 20

// BlobServer serves GET/PUT/POST-append/DELETE/list over namespaced blobs
// rooted at a directory. Safe for concurrent use: every request on one
// blob holds that blob's lock stripe, so a read sees a blob before or
// after an append, never half of one, and a replace or delete never
// renames over an append still writing to the old file. Concurrent
// replacing writers to one name last-write-win whole files, which is the
// same contract the state dir gives two processes pointed at it.
type BlobServer struct {
	root    string
	fsys    fault.FS
	met     *blobMetrics
	stripes [64]sync.Mutex // by blob path
}

type blobMetrics struct {
	reqs  map[string]*obs.Counter // by op: get/put/append/delete/list
	bytes map[string]*obs.Counter // by op: get/put/append
}

// NewBlobServer creates the root directory if needed and returns a server
// over it, after sweeping every existing namespace of the stale temp
// files a crash mid-PUT leaves behind. A nil fsys uses the real
// filesystem.
func NewBlobServer(root string, fsys fault.FS) (*BlobServer, error) {
	if root == "" {
		return nil, fmt.Errorf("persist: empty blob root")
	}
	if fsys == nil {
		fsys = fault.OS
	}
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating blob root: %w", err)
	}
	b := &BlobServer{root: root, fsys: fsys}
	namespaces, err := b.dir("").sweep()
	if err != nil {
		return nil, err
	}
	for _, ns := range namespaces {
		if _, err := b.dir(ns).sweep(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Root returns the blob root directory.
func (b *BlobServer) Root() string { return b.root }

// Instrument attaches pmwcm_blob_requests_total{op} and
// pmwcm_blob_bytes_total{op} counters. Call once before serving.
func (b *BlobServer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := &blobMetrics{reqs: map[string]*obs.Counter{}, bytes: map[string]*obs.Counter{}}
	for _, op := range []string{"get", "put", "append", "delete", "list"} {
		m.reqs[op] = reg.Counter("pmwcm_blob_requests_total",
			"Blob store requests served, by operation.", obs.Labels{"op": op})
	}
	for _, op := range []string{"get", "put", "append"} {
		m.bytes[op] = reg.Counter("pmwcm_blob_bytes_total",
			"Blob bytes transferred, by operation.", obs.Labels{"op": op})
	}
	b.met = m
}

func (b *BlobServer) count(op string, n int) {
	if b.met == nil {
		return
	}
	b.met.reqs[op].Inc()
	if c, ok := b.met.bytes[op]; ok {
		c.Add(uint64(n))
	}
}

// Handler returns the blob API mux:
//
//	GET    /v1/stores/{ns}/blobs        → {"blobs": [names...]}
//	GET    /v1/stores/{ns}/blobs/{name} → blob bytes + fingerprint header
//	PUT    /v1/stores/{ns}/blobs/{name} → atomic durable replace
//	POST   /v1/stores/{ns}/blobs/{name}?at=N → durable append at offset N
//	DELETE /v1/stores/{ns}/blobs/{name} → idempotent delete
func (b *BlobServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stores/{ns}/blobs", b.handleList)
	mux.HandleFunc("GET /v1/stores/{ns}/blobs/{name}", b.handleGet)
	mux.HandleFunc("PUT /v1/stores/{ns}/blobs/{name}", b.handlePut)
	mux.HandleFunc("POST /v1/stores/{ns}/blobs/{name}", b.handleAppend)
	mux.HandleFunc("DELETE /v1/stores/{ns}/blobs/{name}", b.handleDelete)
	return mux
}

// writeJSON writes one JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(doc)
}

// blobError is the typed error document blob handlers return.
func blobError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// dir returns the transport over namespace ns's directory.
func (b *BlobServer) dir(ns string) *dirTransport {
	return &dirTransport{dir: filepath.Join(b.root, ns), fsys: b.fsys}
}

// blob validates the request's namespace and blob name, answering 400
// itself when one is invalid, and returns the namespace's transport. Both
// segments pass the session-id character set (no separators, no leading
// dot), so no name can traverse out of root.
func (b *BlobServer) blob(w http.ResponseWriter, r *http.Request) (d *dirTransport, name string, ok bool) {
	ns, name := r.PathValue("ns"), r.PathValue("name")
	if err := ValidateID(ns); err != nil {
		blobError(w, http.StatusBadRequest, fmt.Sprintf("invalid namespace %q", ns))
		return nil, "", false
	}
	if err := ValidateID(name); err != nil {
		blobError(w, http.StatusBadRequest, fmt.Sprintf("invalid blob name %q", name))
		return nil, "", false
	}
	return b.dir(ns), name, true
}

// lock takes the lock stripe of the blob at path and returns its unlock.
func (b *BlobServer) lock(path string) func() {
	h := fnv.New32a()
	h.Write([]byte(path))
	mu := &b.stripes[h.Sum32()%uint32(len(b.stripes))]
	mu.Lock()
	return mu.Unlock
}

func (b *BlobServer) handleList(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	if err := ValidateID(ns); err != nil {
		blobError(w, http.StatusBadRequest, fmt.Sprintf("invalid namespace %q", ns))
		return
	}
	names, err := b.dir(ns).list()
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		blobError(w, http.StatusInternalServerError, err.Error())
		return
	}
	b.count("list", 0)
	writeJSON(w, http.StatusOK, map[string]any{"blobs": append([]string{}, names...)})
}

func (b *BlobServer) handleGet(w http.ResponseWriter, r *http.Request) {
	d, name, ok := b.blob(w, r)
	if !ok {
		return
	}
	unlock := b.lock(d.path(name))
	data, err := d.get(name)
	unlock()
	if errors.Is(err, errNotFound) {
		blobError(w, http.StatusNotFound, "no such blob")
		return
	}
	if err != nil {
		blobError(w, http.StatusInternalServerError, err.Error())
		return
	}
	b.count("get", len(data))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(FingerprintHeader, Fingerprint64(data))
	w.Write(data)
}

func (b *BlobServer) handlePut(w http.ResponseWriter, r *http.Request) {
	d, name, ok := b.blob(w, r)
	if !ok {
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBlobBytes+1))
	if err != nil {
		blobError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	if len(data) > maxBlobBytes {
		blobError(w, http.StatusRequestEntityTooLarge, "blob exceeds size cap")
		return
	}
	unlock := b.lock(d.path(name))
	err = b.fsys.MkdirAll(d.dir, 0o755)
	if err == nil {
		err = d.put(name, data)
	}
	unlock()
	if err != nil {
		blobError(w, http.StatusInternalServerError, err.Error())
		return
	}
	b.count("put", len(data))
	writeJSON(w, http.StatusOK, map[string]any{
		"saved":       true,
		"bytes":       len(data),
		"fingerprint": Fingerprint64(data),
	})
}

// handleAppend appends the body to a blob iff the blob is exactly at
// bytes long, fsyncing before it answers — the remote WAL's durable
// point. It is idempotent by offset: when the blob already holds the body
// at at (a retry whose first ack was lost), it answers 200 without
// writing. Any other size mismatch is 409, and an append that would grow
// the blob past maxBlobBytes is 413. A failed write is cut back to at, so
// the client's retry finds the blob where it left it.
func (b *BlobServer) handleAppend(w http.ResponseWriter, r *http.Request) {
	d, name, ok := b.blob(w, r)
	if !ok {
		return
	}
	at, err := strconv.ParseInt(r.URL.Query().Get("at"), 10, 64)
	if err != nil || at < 0 {
		blobError(w, http.StatusBadRequest, "append needs a non-negative ?at= offset")
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBlobBytes+1))
	if err != nil {
		blobError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	if at+int64(len(data)) > maxBlobBytes {
		blobError(w, http.StatusRequestEntityTooLarge, "append would grow the blob past the size cap")
		return
	}
	path := d.path(name)
	unlock := b.lock(path)
	status, err := b.appendAt(path, at, data)
	unlock()
	if err != nil {
		blobError(w, status, err.Error())
		return
	}
	b.count("append", len(data))
	writeJSON(w, http.StatusOK, map[string]any{"size": at + int64(len(data))})
}

// appendAt is handleAppend's body under the blob's lock stripe. It returns
// the HTTP status of a failure.
func (b *BlobServer) appendAt(path string, at int64, data []byte) (int, error) {
	flag := os.O_RDWR | os.O_APPEND
	if at == 0 {
		// Only an append at 0 may create the blob (and its namespace).
		if err := b.fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return http.StatusInternalServerError, err
		}
		flag |= os.O_CREATE
	}
	f, err := b.fsys.OpenFile(path, flag, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		return http.StatusConflict, fmt.Errorf("append at %d to an absent blob", at)
	}
	if err != nil {
		return http.StatusInternalServerError, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return http.StatusInternalServerError, err
	}
	if size := info.Size(); size != at {
		end := at + int64(len(data))
		if held, err := b.fsys.ReadFile(path); err == nil && int64(len(held)) >= end && bytes.Equal(held[at:end], data) {
			return http.StatusOK, nil // a retry of a committed append
		}
		return http.StatusConflict, fmt.Errorf("append at %d, blob holds %d bytes", at, size)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if werr != nil {
		// Best-effort: a cut that fails leaves a torn tail, which the
		// client's retry sees as a 409 and its log's reader truncates.
		_ = f.Truncate(at)
		return http.StatusInternalServerError, werr
	}
	return http.StatusOK, nil
}

func (b *BlobServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	d, name, ok := b.blob(w, r)
	if !ok {
		return
	}
	unlock := b.lock(d.path(name))
	err := d.remove(name)
	unlock()
	if err != nil {
		blobError(w, http.StatusInternalServerError, err.Error())
		return
	}
	b.count("delete", 0)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": true})
}
