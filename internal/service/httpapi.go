package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/convex"
	"repro/internal/core"
	"repro/internal/mech"
	"repro/internal/obs"
)

// httpapi.go is the HTTP/JSON front end over a Manager. The API surface:
//
//	GET    /healthz                      — liveness: uptime, open-session count, durability
//	GET    /version                      — build identity (module version, VCS revision)
//	GET    /metrics                      — observability registry (Prometheus text; ?format=json),
//	                                       present only when the manager has a metrics registry
//	GET    /v1/losses                    — registered loss kinds
//	GET    /v1/accountants               — privacy accountant names and the default
//	GET    /v1/defaults                  — merged default session parameters
//	POST   /v1/sessions                  — create a session (body: SessionParams, all fields optional)
//	GET    /v1/sessions                  — list session statuses
//	GET    /v1/sessions/{id}             — one session's status
//	POST   /v1/sessions/{id}/query       — answer a query (body: {"kind": ..., "params": {...}})
//	POST   /v1/sessions/{id}/queries:batch — answer a batch (body: {"queries": [spec, ...]})
//	POST   /v1/sessions/{id}/snapshot    — force a durable checkpoint of the session
//	GET    /v1/sessions/{id}/transcript  — the session's audit transcript
//	DELETE /v1/sessions/{id}             — close the session
//
// Every response is JSON. Failures carry {"error": ...} with a status code
// mapped from the service's typed errors: 404 unknown session, 409 closed,
// 429 budget exhausted, 503 (with Retry-After) at the session limit,
// during shutdown or when a page-in gives up under eviction pressure, 501
// snapshot without a state directory, 500 checkpoint write failure, 400
// for malformed requests and unknown losses.
//
// Restore has no endpoint on purpose: sessions are restored by the manager
// at startup from its state directory (see Config.Store), never by analyst
// request — an analyst who could re-load an older snapshot would rewind
// the privacy ledger and re-spend budget the mechanism already released.

// NewHandler returns the HTTP handler serving m.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Health{
			OK:               true,
			UptimeSec:        time.Since(m.Started()).Seconds(),
			OpenSessions:     m.OpenSessions(),
			ResidentSessions: m.ResidentSessions(),
			Universe:         m.Universe().String(),
			Durable:          m.Durable(),
			StateDir:         m.StateDir(),
			WAL:              m.Durable(),
		})
	})

	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, obs.Version())
	})

	if reg := m.Metrics(); reg != nil {
		mux.Handle("GET /metrics", obs.MetricsHandler(reg))
	}

	mux.HandleFunc("GET /v1/losses", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"kinds": convex.Kinds()})
	})

	mux.HandleFunc("GET /v1/accountants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"accountants": mech.AccountantNames(),
			"default":     mech.DefaultAccountant,
		})
	})

	mux.HandleFunc("GET /v1/defaults", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Defaults())
	})

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req SessionParams
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		s, err := m.CreateSession(req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, s.Status())
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"sessions": m.Statuses()})
	})

	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.SessionStatus(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("POST /v1/sessions/{id}/query", func(w http.ResponseWriter, r *http.Request) {
		var spec convex.Spec
		if err := decodeBody(w, r, &spec); err != nil {
			writeError(w, err)
			return
		}
		res, err := m.Query(r.PathValue("id"), spec)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("POST /v1/sessions/{id}/queries:batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		if len(req.Queries) == 0 {
			writeError(w, fmt.Errorf("service: batch needs at least one query"))
			return
		}
		if len(req.Queries) > MaxBatchSize {
			writeError(w, fmt.Errorf("service: batch of %d queries exceeds limit %d", len(req.Queries), MaxBatchSize))
			return
		}
		items, err := m.QueryBatch(r.PathValue("id"), req.Queries)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, newBatchResponse(items))
	})

	mux.HandleFunc("POST /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if err := m.CheckpointSession(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"saved": true})
	})

	mux.HandleFunc("GET /v1/sessions/{id}/transcript", func(w http.ResponseWriter, r *http.Request) {
		data, err := m.SessionTranscript(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})

	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.CloseSession(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"closed": true})
	})

	return mux
}

// MaxBatchSize caps the number of queries one batch request may carry.
const MaxBatchSize = 1024

// Health is the body of GET /healthz.
type Health struct {
	// OK is always true when the server can respond at all.
	OK bool `json:"ok"`
	// UptimeSec is the seconds since the manager was constructed.
	UptimeSec float64 `json:"uptime_sec"`
	// OpenSessions counts currently open sessions; ResidentSessions the
	// subset holding memory (the rest is evicted to the store and paged in
	// on touch).
	OpenSessions     int `json:"open_sessions"`
	ResidentSessions int `json:"resident_sessions"`
	// Universe describes the public data universe.
	Universe string `json:"universe"`
	// Durable reports whether sessions checkpoint to a state directory;
	// StateDir is that directory ("" when memory-only).
	Durable  bool   `json:"durable"`
	StateDir string `json:"state_dir,omitempty"`
	// WAL reports that the write path runs through per-session
	// write-ahead logs: true on every durable manager.
	WAL bool `json:"wal,omitempty"`
}

// BatchRequest is the body of POST /v1/sessions/{id}/queries:batch.
type BatchRequest struct {
	// Queries are the specs to answer, in submission order.
	Queries []convex.Spec `json:"queries"`
}

// BatchResponse is the body of a successful batch reply.
type BatchResponse struct {
	// Results has one entry per submitted query, in submission order.
	Results []BatchItem `json:"results"`
	// CacheHits counts items served from the answer cache (zero spend);
	// Tops counts items whose answer spent an oracle call; Errors counts
	// failed items.
	CacheHits int `json:"cache_hits"`
	Tops      int `json:"tops"`
	Errors    int `json:"errors"`
}

// newBatchResponse summarizes items into the HTTP reply.
func newBatchResponse(items []BatchItem) BatchResponse {
	resp := BatchResponse{Results: items}
	for _, it := range items {
		switch {
		case it.Error != "":
			resp.Errors++
		case it.Result.Cached:
			resp.CacheHits++
		case it.Result.Top:
			resp.Tops++
		}
	}
	return resp
}

// maxBodyBytes caps request bodies; session and query payloads are tiny by
// design, so anything larger is abuse.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes the request body, allowing an empty body to
// mean the zero value (so `curl -X POST` without a payload works for
// session creation with defaults).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("service: decoding request body: %w", err)
	}
	return nil
}

// writeJSON serializes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// retryAfterSeconds is the Retry-After every 503 carries: the session
// cap, a shutdown and a page-in under eviction pressure are all
// transient refusals, and a fleet router relays the header to the client.
const retryAfterSeconds = "1"

// writeError maps a service error to its HTTP status.
func writeError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusFor maps typed service errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrSessionClosed), errors.Is(err, ErrSessionExists):
		return http.StatusConflict
	case errors.Is(err, ErrBudgetExhausted):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrTooManySessions), errors.Is(err, ErrShuttingDown), errors.Is(err, ErrPagedOut):
		// ErrPagedOut surfaces only when page-in retries were exhausted
		// under extreme eviction pressure — a transient overload, so the
		// client should retry.
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotDurable):
		// Snapshot requested of a memory-only server: the feature is not
		// configured, which is the server's circumstance, not the client's
		// mistake.
		return http.StatusNotImplemented
	case errors.Is(err, ErrCheckpoint):
		// The durable write failed; the session state is intact in memory.
		return http.StatusInternalServerError
	case errors.Is(err, mech.ErrUnknownAccountant), errors.Is(err, core.ErrNeedsSupport):
		// Malformed session request (an unknown accountant name, or a
		// loss the factored engine cannot answer): a client error, listed
		// explicitly so the mapping is load-bearing, not accidental.
		return http.StatusBadRequest
	default:
		return http.StatusBadRequest
	}
}
