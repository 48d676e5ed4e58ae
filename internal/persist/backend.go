// Backend abstracts the session state store so the serving layer can run
// against more than one durability substrate. Two implementations exist:
//
//   - *Store (persist.go): the original state directory on a local
//     filesystem, reached through the fault.FS seam.
//   - *Remote (this file): a thin HTTP client against the blob endpoint
//     a `pmwcm store` process exposes (blobserver.go). The wire format is
//     exactly the state-dir file format — the same envelope and log bytes
//     land in the same file names, namespaced per replica — so an
//     operator can point a state-dir replica at a copied-down namespace
//     and vice versa.
//
// Both give every session the same two durable documents: a snapshot
// (SessionState, the compaction and long-term format) and a write-ahead
// log (WAL, the per-⊤ durable point). A remote log is a blob grown by
// conditional appends, so a ⊤ ships one small record, not the envelope.
package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Backend is a session state store: a manifest slot, a keyed set of
// session state documents, and a per-session WAL facility.
// Implementations must keep the documents bit-exact across a round trip —
// the bit-identical-restore invariant decodes what Save encoded.
// Like *Store, per-id method calls are serialized by the caller.
type Backend interface {
	// Location names where state lives (directory path or endpoint URL),
	// for logs and the healthz document.
	Location() string
	// Instrument attaches checkpoint observability. nil registry is a
	// no-op; call once before concurrent use.
	Instrument(reg *obs.Registry)

	// SaveManifest durably replaces the manifest.
	SaveManifest(m *Manifest) error
	// LoadManifest reads the manifest, (nil, nil) when none exists yet.
	LoadManifest() (*Manifest, error)

	// SaveSession durably replaces one session's state document.
	SaveSession(st *SessionState) error
	// LoadSession reads one session's state document.
	LoadSession(id string) (*SessionState, error)
	// Sessions lists ids that have a state document, sorted.
	Sessions() ([]string, error)
	// DeleteSession removes a session's state document; idempotent.
	DeleteSession(id string) error

	// OpenWAL opens a session's append log. The caller guarantees the log
	// holds no records past the session's snapshot (LoadWAL found none,
	// or they were just folded): a file log resumes at its end, a blob
	// log is replaced by the first Sync.
	OpenWAL(id string) (*WAL, error)
	// LoadWAL parses a session's log, healing a torn tail; (nil, nil)
	// when there is none.
	LoadWAL(id string) ([]*WALRecord, error)
	// RemoveWAL deletes a session's log; idempotent.
	RemoveWAL(id string) error
}

// Store implements Backend over a state directory.
var _ Backend = (*Store)(nil)

// Location returns the state directory path.
func (s *Store) Location() string { return s.dir }

// ValidateID reports whether id is usable as a session id: non-empty,
// ≤128 filename-safe characters, no leading dot. Exposed so layers that
// mint or accept ids (the router, the service's requested-id path) agree
// with the store about what can be persisted.
func ValidateID(id string) error { return validID(id) }

// Fingerprint64 is the content fingerprint the blob protocol uses for
// end-to-end verification: fnv1a64 over the raw bytes, formatted like the
// dataset hash. The blob server stamps it on reads and the Remote backend
// recomputes it, so a truncated or corrupted body is detected at load
// time instead of surfacing later as an undecodable envelope or, worse, a
// decodable-but-wrong one.
func Fingerprint64(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("fnv1a64:%016x", h.Sum64())
}

// FingerprintHeader carries the content fingerprint on blob responses.
const FingerprintHeader = "X-Pmwcm-Fingerprint"

// Remote is the Backend over a `pmwcm store` blob endpoint. The base URL
// addresses one namespace (one replica's state), e.g.
// http://host:9099/v1/stores/r1 — blob names inside it mirror the
// state-dir file names. Writes and reads retry transient failures
// (transport errors and 5xx) with backoff; loads verify the server's
// content fingerprint before decoding.
type Remote struct {
	base    string
	client  *http.Client
	retries int
	backoff time.Duration
	// Instruments (nil until Instrument; nil instruments are no-ops).
	met     *storeMetrics
	rtt     *obs.Histogram
	retried *obs.Counter
}

// RemoteOptions tunes a Remote backend; zero values select defaults.
type RemoteOptions struct {
	// Client is the HTTP client (default: 10 s timeout).
	Client *http.Client
	// Retries is the number of attempts per request (default 3).
	Retries int
	// Backoff is the base delay between attempts, scaled linearly
	// (default 50 ms).
	Backoff time.Duration
}

// OpenRemote validates the namespace URL and probes the endpoint with a
// list request so a misconfigured fleet fails at startup, not at the
// first checkpoint.
func OpenRemote(base string, opts RemoteOptions) (*Remote, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("persist: invalid store URL %q", base)
	}
	r := &Remote{
		base:    strings.TrimRight(base, "/"),
		client:  opts.Client,
		retries: opts.Retries,
		backoff: opts.Backoff,
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: 10 * time.Second}
	}
	if r.retries <= 0 {
		r.retries = 3
	}
	if r.backoff <= 0 {
		r.backoff = 50 * time.Millisecond
	}
	if _, err := r.list(); err != nil {
		return nil, fmt.Errorf("persist: probing store endpoint: %w", err)
	}
	return r, nil
}

var _ Backend = (*Remote)(nil)

// Location returns the namespace URL.
func (r *Remote) Location() string { return r.base }

// Instrument attaches the state-dir store's checkpoint and WAL
// instruments (same names and labels, so dashboards are backend-agnostic)
// plus remote-only request-latency and retry instruments.
func (r *Remote) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.met = newStoreMetrics(reg)
	r.rtt = reg.Histogram("pmwcm_store_request_seconds",
		"Remote store request latency in seconds (successful attempts).", obs.DefBuckets, nil)
	r.retried = reg.Counter("pmwcm_store_retries_total",
		"Remote store attempts retried after a transient failure.", nil)
}

// blobURL maps a blob name into the namespace.
func (r *Remote) blobURL(name string) string { return r.base + "/blobs/" + name }

// errNotFound marks a 404 so loads can distinguish "absent" from broken.
var errNotFound = errors.New("persist: blob not found")

// transient reports whether an attempt is worth retrying: transport
// errors and 5xx responses are; 4xx are contract violations and are not.
func transient(status int, err error) bool {
	if err != nil {
		return true
	}
	return status >= 500
}

// do runs one request with retries, returning the final response body and
// status. verify enables fingerprint checking on 200 bodies (reads); a
// fingerprint mismatch is treated as transient — the blob may have been
// replaced mid-read — and retried.
func (r *Remote) do(method, u string, body []byte, verify bool) ([]byte, int, error) {
	if len(body) > maxBlobBytes {
		return nil, 0, fmt.Errorf("persist: %s %s: %d-byte body exceeds the %d-byte blob cap", method, u, len(body), maxBlobBytes)
	}
	var lastErr error
	for attempt := 0; attempt < r.retries; attempt++ {
		if attempt > 0 {
			r.retried.Inc()
			time.Sleep(r.backoff * time.Duration(attempt))
		}
		var reqBody io.Reader
		if body != nil {
			reqBody = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, u, reqBody)
		if err != nil {
			return nil, 0, fmt.Errorf("persist: building %s %s: %w", method, u, err)
		}
		start := time.Now()
		resp, err := r.client.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("persist: %s %s: %w", method, u, err)
			continue
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
		resp.Body.Close()
		if rerr != nil {
			lastErr = fmt.Errorf("persist: reading %s %s response: %w", method, u, rerr)
			continue
		}
		if len(data) > maxBlobBytes {
			// Not transient: a retry reads the same oversized blob again.
			return nil, resp.StatusCode, fmt.Errorf("persist: %s %s: response exceeds the %d-byte blob cap", method, u, maxBlobBytes)
		}
		if transient(resp.StatusCode, nil) {
			lastErr = fmt.Errorf("persist: %s %s: status %d: %s", method, u, resp.StatusCode, firstLine(data))
			continue
		}
		r.rtt.Observe(time.Since(start).Seconds())
		if resp.StatusCode == http.StatusNotFound {
			return nil, resp.StatusCode, fmt.Errorf("%w: %s", errNotFound, u)
		}
		if resp.StatusCode/100 != 2 {
			return nil, resp.StatusCode, fmt.Errorf("persist: %s %s: status %d: %s", method, u, resp.StatusCode, firstLine(data))
		}
		if verify {
			want := resp.Header.Get(FingerprintHeader)
			if want == "" {
				return nil, resp.StatusCode, fmt.Errorf("persist: %s %s: response missing %s header", method, u, FingerprintHeader)
			}
			if got := Fingerprint64(data); got != want {
				lastErr = fmt.Errorf("persist: %s %s: content fingerprint %s, header says %s", method, u, got, want)
				continue
			}
		}
		return data, resp.StatusCode, nil
	}
	return nil, 0, lastErr
}

// firstLine trims an error body for inclusion in an error message.
func firstLine(data []byte) string {
	s := strings.TrimSpace(string(data))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// put writes one blob and lands the checkpoint metrics.
func (r *Remote) put(name, kind string, data []byte) error {
	if _, _, err := r.do(http.MethodPut, r.blobURL(name), data, false); err != nil {
		return err
	}
	if r.met != nil {
		r.met.count[kind].Inc()
		r.met.bytes[kind].Add(uint64(len(data)))
	}
	return nil
}

// SaveManifest durably replaces the manifest blob.
func (r *Remote) SaveManifest(m *Manifest) error {
	data, err := Encode(FormatManifest, m)
	if err != nil {
		return err
	}
	return r.put(manifestFile, KindManifest, data)
}

// LoadManifest reads and verifies the manifest blob, (nil, nil) when the
// namespace has none yet.
func (r *Remote) LoadManifest() (*Manifest, error) {
	data, _, err := r.do(http.MethodGet, r.blobURL(manifestFile), nil, true)
	if errors.Is(err, errNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := Decode(data, FormatManifest, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// SaveSession durably replaces one session's state blob.
func (r *Remote) SaveSession(st *SessionState) error {
	if err := validID(st.ID); err != nil {
		return err
	}
	data, err := Encode(FormatSession, st)
	if err != nil {
		return err
	}
	return r.put(sessionPrefix+st.ID+sessionSuffix, KindSession, data)
}

// LoadSession reads and verifies one session's state blob.
func (r *Remote) LoadSession(id string) (*SessionState, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	data, _, err := r.do(http.MethodGet, r.blobURL(sessionPrefix+id+sessionSuffix), nil, true)
	if err != nil {
		return nil, fmt.Errorf("persist: reading session %s: %w", id, err)
	}
	var st SessionState
	if err := Decode(data, FormatSession, &st); err != nil {
		return nil, fmt.Errorf("persist: session %s: %w", id, err)
	}
	if st.ID != id {
		return nil, fmt.Errorf("persist: session blob %s carries id %q", id, st.ID)
	}
	return &st, nil
}

// list fetches the namespace's blob names.
func (r *Remote) list() ([]string, error) {
	data, _, err := r.do(http.MethodGet, r.base+"/blobs", nil, false)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Blobs []string `json:"blobs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("persist: decoding blob list: %w", err)
	}
	return doc.Blobs, nil
}

// Sessions lists the ids with a state blob, sorted.
func (r *Remote) Sessions() ([]string, error) {
	names, err := r.list()
	if err != nil {
		return nil, err
	}
	return sessionIDs(names), nil
}

// DeleteSession removes a session's state blob; deleting an absent blob
// succeeds.
func (r *Remote) DeleteSession(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	return r.remove(sessionPrefix + id + sessionSuffix)
}

// remove deletes a blob, succeeding when it is already gone.
func (r *Remote) remove(name string) error {
	_, _, err := r.do(http.MethodDelete, r.blobURL(name), nil, false)
	if errors.Is(err, errNotFound) {
		return nil
	}
	return err
}

// walName is a session log's blob name — its state-dir file name.
func walName(id string) string { return sessionPrefix + id + walSuffix }

// OpenWAL returns the session's log over its blob without a request: the
// header waits in the buffer, and the first Sync writes header and
// records with one atomic PUT, replacing whatever header-only (or absent)
// blob the session had. Every later Sync is one conditional append.
func (r *Remote) OpenWAL(id string) (*WAL, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	header := headerFrame(id)
	return &WAL{
		sink:  &blobSink{r: r, url: r.blobURL(walName(id)), buf: header, off: -1},
		id:    id,
		met:   r.met,
		bytes: int64(len(header)),
	}, nil
}

// LoadWAL reads and parses a session's log blob, (nil, nil) when there is
// none. A torn tail is healed by an atomic PUT of the clean prefix, the
// blob form of the state dir's truncate.
func (r *Remote) LoadWAL(id string) ([]*WALRecord, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	u := r.blobURL(walName(id))
	data, _, err := r.do(http.MethodGet, u, nil, true)
	if errors.Is(err, errNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: reading wal for %s: %w", id, err)
	}
	recs, clean, torn, err := parseWAL(data, id)
	if err != nil {
		return nil, err
	}
	if torn {
		if _, _, err := r.do(http.MethodPut, u, data[:clean], false); err != nil {
			return nil, fmt.Errorf("persist: truncating torn wal tail for %s: %w", id, err)
		}
		if r.met != nil {
			r.met.walTruncations.Inc()
		}
	}
	return recs, nil
}

// RemoveWAL deletes a session's log blob; deleting an absent blob
// succeeds.
func (r *Remote) RemoveWAL(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	return r.remove(walName(id))
}

// blobSink is the remote WAL sink. Appended frames wait in buf; a sync
// ships all of them in one request, conditional on the blob's size: the
// server appends at offset off or not at all, and acknowledges a retry
// of an append it already committed without writing again, so the
// client's transport retries cannot double-apply a record. off is -1
// until the first sync or reset, whose atomic PUT fixes the blob's
// contents without knowing what was there.
type blobSink struct {
	r   *Remote
	url string

	mu  sync.Mutex // guards buf
	buf []byte

	syncMu sync.Mutex // serializes sync and reset; guards off and err
	off    int64
	// err is sticky: after a failed sync the blob may lack records a
	// later sync would not resend, so every sync fails until a reset
	// rewrites the blob.
	err error
}

func (k *blobSink) write(p []byte) error {
	k.mu.Lock()
	k.buf = append(k.buf, p...)
	k.mu.Unlock()
	return nil
}

func (k *blobSink) sync() error {
	k.syncMu.Lock()
	defer k.syncMu.Unlock()
	if k.err != nil {
		return k.err
	}
	k.mu.Lock()
	data := k.buf
	k.buf = nil
	k.mu.Unlock()
	if len(data) == 0 {
		return nil
	}
	method, u := http.MethodPut, k.url
	if k.off >= 0 {
		method, u = http.MethodPost, k.url+"?at="+strconv.FormatInt(k.off, 10)
	}
	if _, _, err := k.r.do(method, u, data, false); err != nil {
		k.err = err
		return err
	}
	k.off = max(k.off, 0) + int64(len(data))
	return nil
}

func (k *blobSink) reset(header []byte) error {
	k.syncMu.Lock()
	defer k.syncMu.Unlock()
	if _, _, err := k.r.do(http.MethodPut, k.url, header, false); err != nil {
		return err
	}
	k.mu.Lock()
	k.buf = nil
	k.mu.Unlock()
	k.off, k.err = int64(len(header)), nil
	return nil
}

func (k *blobSink) close() error { return nil }
