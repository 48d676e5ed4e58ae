// BlobServer is the serving side of the Remote backend: a small,
// namespace-partitioned blob store over a directory tree, spoken over
// HTTP by `pmwcm store`. One store process holds the state of a whole
// fleet — each serve replica gets its own namespace (a subdirectory), so
// replicas never collide on manifest.json while an operator still backs
// up or inspects one flat tree.
//
// The server reuses the state-dir discipline: replacing writes are atomic
// (temp + fsync + rename through the fault.FS seam), appends are
// conditional on the blob's size and fsynced before they are
// acknowledged, reads stamp a content fingerprint header for end-to-end
// verification, and names are validated against the same character set
// as session ids so a request can never escape the root directory.
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
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
)

// maxBlobBytes caps a single blob (and a Remote response body). Session
// state grows with the transcript; 64 MiB is ~two orders of magnitude
// above the largest state the load tests produce.
const maxBlobBytes = 64 << 20

// BlobServer serves GET/PUT/POST-append/DELETE/list over namespaced blobs
// rooted at a directory. Safe for concurrent use: atomic rename is the
// commit point, concurrent writers to one name last-write-win whole
// files, which is the same contract the state dir gives two processes
// pointed at it; appends to one blob serialize on a lock stripe.
type BlobServer struct {
	root    string
	fsys    fault.FS
	met     *blobMetrics
	appends [64]sync.Mutex // striped by blob path
}

type blobMetrics struct {
	reqs  map[string]*obs.Counter // by op: get/put/append/delete/list
	bytes map[string]*obs.Counter // by op: get/put/append
}

// NewBlobServer creates the root directory if needed and returns a server
// over it. A nil fsys uses the real filesystem.
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
	return &BlobServer{root: root, fsys: fsys}, nil
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

// blobError is the typed error document blob handlers return.
func blobError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// blobPath validates the namespace and name and maps them under the root.
// Both segments pass the session-id character set (no separators, no
// leading dot), so the join cannot traverse out of root.
func (b *BlobServer) blobPath(ns, name string) (string, error) {
	if err := validID(ns); err != nil {
		return "", fmt.Errorf("invalid namespace %q", ns)
	}
	if err := validID(name); err != nil {
		return "", fmt.Errorf("invalid blob name %q", name)
	}
	return filepath.Join(b.root, ns, name), nil
}

func (b *BlobServer) handleList(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	if err := validID(ns); err != nil {
		blobError(w, http.StatusBadRequest, fmt.Sprintf("invalid namespace %q", ns))
		return
	}
	entries, err := b.fsys.ReadDir(filepath.Join(b.root, ns))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		blobError(w, http.StatusInternalServerError, err.Error())
		return
	}
	names := []string{}
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), tmpPrefix) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	b.count("list", 0)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"blobs": names})
}

func (b *BlobServer) handleGet(w http.ResponseWriter, r *http.Request) {
	path, err := b.blobPath(r.PathValue("ns"), r.PathValue("name"))
	if err != nil {
		blobError(w, http.StatusBadRequest, err.Error())
		return
	}
	data, err := b.fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
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
	ns, name := r.PathValue("ns"), r.PathValue("name")
	path, err := b.blobPath(ns, name)
	if err != nil {
		blobError(w, http.StatusBadRequest, err.Error())
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
	dir := filepath.Dir(path)
	if err := b.fsys.MkdirAll(dir, 0o755); err != nil {
		blobError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if err := writeAtomicFS(b.fsys, dir, path, data, fault.File.Sync); err != nil {
		blobError(w, http.StatusInternalServerError, err.Error())
		return
	}
	b.count("put", len(data))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
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
	path, err := b.blobPath(r.PathValue("ns"), r.PathValue("name"))
	if err != nil {
		blobError(w, http.StatusBadRequest, err.Error())
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
	h := fnv.New32a()
	h.Write([]byte(path))
	mu := &b.appends[h.Sum32()%uint32(len(b.appends))]
	mu.Lock()
	defer mu.Unlock()
	status, err := b.appendAt(path, at, data)
	if err != nil {
		blobError(w, status, err.Error())
		return
	}
	b.count("append", len(data))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"size": at + int64(len(data))})
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
	path, err := b.blobPath(r.PathValue("ns"), r.PathValue("name"))
	if err != nil {
		blobError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := b.fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		blobError(w, http.StatusInternalServerError, err.Error())
		return
	}
	b.count("delete", 0)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"deleted": true})
}

// writeAtomicFS writes data to path via a temp file in dir and a rename,
// so readers and crash recovery only ever observe complete files; sync
// hardens the temp file before the rename. The state dir and the blob
// server share it.
func writeAtomicFS(fsys fault.FS, dir, path string, data []byte, sync func(fault.File) error) error {
	tmp, err := fsys.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("persist: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	serr := sync(tmp)
	cerr := tmp.Close()
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			fsys.Remove(tmpName)
			return fmt.Errorf("persist: writing %s: %w", filepath.Base(path), err)
		}
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("persist: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}
