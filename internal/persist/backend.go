package persist

// backend.go holds the Backend seam and the blob-store transport. Store
// (persist.go) is the one Backend; OpenRemote puts it over a namespace of
// a `pmwcm store` process (blobserver.go), whose blobs carry exactly the
// state-dir file names and bytes, so a copied-down namespace is a valid
// state directory and vice versa. The transports differ in one real way,
// the log sink: a file log resumes at its end (fileSink, dir.go), while a
// blob log is replaced by its first Sync and then grown by conditional
// appends (blobSink, below), so a ⊤ ships one small record.

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

// Fingerprint64 is the content fingerprint the blob protocol uses for
// end-to-end verification: fnv1a64 over the raw bytes, formatted like the
// dataset hash. The blob server stamps it on reads and a remote store
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

// httpTransport reaches the documents of one `pmwcm store` namespace. The
// base URL addresses the namespace (one replica's state), e.g.
// http://host:9099/v1/stores/r1 — blob names inside it are the state-dir
// file names. Requests retry transient failures (transport errors and
// 5xx) with backoff; reads verify the server's content fingerprint.
type httpTransport struct {
	base    string
	client  *http.Client
	backoff time.Duration
	// Instruments (nil until instrument; nil instruments are no-ops).
	rtt     *obs.Histogram
	retried *obs.Counter
}

// RemoteOptions tunes a remote store; zero values select defaults.
type RemoteOptions struct {
	// Client is the HTTP client (default: 10 s timeout).
	Client *http.Client
	// Backoff is the base delay between attempts, scaled linearly
	// (default 50 ms).
	Backoff time.Duration
}

// remoteAttempts is the number of attempts per remote store request.
const remoteAttempts = 3

// OpenRemote returns a store over the blob-store namespace at base. It
// validates the URL and probes the endpoint with a list request so a
// misconfigured fleet fails at startup, not at the first checkpoint.
func OpenRemote(base string, opts RemoteOptions) (*Store, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("persist: invalid store URL %q", base)
	}
	h := &httpTransport{
		base:    strings.TrimRight(base, "/"),
		client:  opts.Client,
		backoff: opts.Backoff,
	}
	if h.client == nil {
		h.client = &http.Client{Timeout: 10 * time.Second}
	}
	if h.backoff <= 0 {
		h.backoff = 50 * time.Millisecond
	}
	if _, err := h.list(); err != nil {
		return nil, fmt.Errorf("persist: probing store endpoint: %w", err)
	}
	return &Store{t: h, loc: h.base}, nil
}

func (h *httpTransport) instrument(reg *obs.Registry, _ *storeMetrics) {
	h.rtt = reg.Histogram("pmwcm_store_request_seconds",
		"Remote store request latency in seconds (successful attempts).", obs.DefBuckets, nil)
	h.retried = reg.Counter("pmwcm_store_retries_total",
		"Remote store attempts retried after a transient failure.", nil)
}

// blobURL maps a blob name into the namespace.
func (h *httpTransport) blobURL(name string) string { return h.base + "/blobs/" + name }

// do runs one request, returning the response body. Transport errors and
// 5xx responses are retried with backoff; 4xx are contract violations and
// are not. verify checks the fingerprint of a read's body, retrying a
// mismatch — the blob may have been replaced mid-read.
func (h *httpTransport) do(method, u string, body []byte, verify bool) ([]byte, error) {
	if len(body) > maxBlobBytes {
		return nil, fmt.Errorf("persist: %s %s: %d-byte body exceeds the %d-byte blob cap", method, u, len(body), maxBlobBytes)
	}
	var lastErr error
	for attempt := 0; attempt < remoteAttempts; attempt++ {
		if attempt > 0 {
			h.retried.Inc()
			time.Sleep(h.backoff * time.Duration(attempt))
		}
		var reqBody io.Reader
		if body != nil {
			reqBody = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, u, reqBody)
		if err != nil {
			return nil, fmt.Errorf("persist: building %s %s: %w", method, u, err)
		}
		start := time.Now()
		resp, err := h.client.Do(req)
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
			return nil, fmt.Errorf("persist: %s %s: response exceeds the %d-byte blob cap", method, u, maxBlobBytes)
		}
		if resp.StatusCode >= 500 {
			lastErr = fmt.Errorf("persist: %s %s: status %d: %s", method, u, resp.StatusCode, firstLine(data))
			continue
		}
		h.rtt.Observe(time.Since(start).Seconds())
		if resp.StatusCode == http.StatusNotFound {
			return nil, fmt.Errorf("%w: %s", errNotFound, u)
		}
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("persist: %s %s: status %d: %s", method, u, resp.StatusCode, firstLine(data))
		}
		if verify {
			want := resp.Header.Get(FingerprintHeader)
			if want == "" {
				return nil, fmt.Errorf("persist: %s %s: response missing %s header", method, u, FingerprintHeader)
			}
			if got := Fingerprint64(data); got != want {
				lastErr = fmt.Errorf("persist: %s %s: content fingerprint %s, header says %s", method, u, got, want)
				continue
			}
		}
		return data, nil
	}
	return nil, lastErr
}

// firstLine trims an error body for inclusion in an error message.
func firstLine(data []byte) string {
	s, _, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	return s[:min(len(s), 200)]
}

func (h *httpTransport) get(name string) ([]byte, error) {
	return h.do(http.MethodGet, h.blobURL(name), nil, true)
}

func (h *httpTransport) put(name string, data []byte) error {
	_, err := h.do(http.MethodPut, h.blobURL(name), data, false)
	return err
}

func (h *httpTransport) remove(name string) error {
	_, err := h.do(http.MethodDelete, h.blobURL(name), nil, false)
	if errors.Is(err, errNotFound) {
		return nil
	}
	return err
}

func (h *httpTransport) list() ([]string, error) {
	data, err := h.do(http.MethodGet, h.base+"/blobs", nil, false)
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

// loadLog cuts a torn tail with an atomic PUT of the clean prefix, the
// blob form of the state dir's truncate.
func (h *httpTransport) loadLog(name string, parse func([]byte) (int64, bool, error)) (bool, error) {
	data, err := h.get(name)
	if err != nil {
		return false, err
	}
	clean, torn, err := parse(data)
	if err != nil || !torn {
		return false, err
	}
	if err := h.put(name, data[:clean]); err != nil {
		return false, fmt.Errorf("persist: truncating torn tail of %s: %w", name, err)
	}
	return true, nil
}

// openLog returns the session's log over its blob without a request: the
// header waits in the buffer, and the first Sync writes header and
// records with one atomic PUT, replacing whatever header-only (or absent)
// blob the session had. Every later Sync is one conditional append.
func (h *httpTransport) openLog(id string, met *storeMetrics) (*WAL, error) {
	header := headerFrame(id)
	return &WAL{
		sink:  &blobSink{h: h, url: h.blobURL(walName(id)), buf: header, off: -1},
		id:    id,
		met:   met,
		bytes: int64(len(header)),
	}, nil
}

// blobSink is the remote WAL sink. Appended frames wait in buf; a sync
// ships all of them in one request, conditional on the blob's size: the
// server appends at offset off or not at all, and acknowledges a retry
// of an append it already committed without writing again, so the
// client's transport retries cannot double-apply a record. off is -1
// until the first sync or reset, whose atomic PUT fixes the blob's
// contents without knowing what was there. The WAL serializes sync and
// reset, which own off; a failed sync leaves the drained frames unsent,
// and the WAL's sticky error keeps them from being skipped over.
type blobSink struct {
	h   *httpTransport
	url string
	off int64

	mu  sync.Mutex // guards buf: write runs concurrently with sync
	buf []byte
}

func (k *blobSink) write(p []byte) error {
	k.mu.Lock()
	k.buf = append(k.buf, p...)
	k.mu.Unlock()
	return nil
}

func (k *blobSink) sync() error {
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
	if _, err := k.h.do(method, u, data, false); err != nil {
		return err
	}
	k.off = max(k.off, 0) + int64(len(data))
	return nil
}

// reset drops the buffered frames and syncs the header alone as a first
// sync: one atomic PUT.
func (k *blobSink) reset(header []byte) error {
	k.mu.Lock()
	k.buf = header
	k.mu.Unlock()
	k.off = -1
	return k.sync()
}

func (k *blobSink) close() error { return nil }
