package route

// handler.go is the router's HTTP surface: a thin forwarding layer that
// resolves every session-scoped path to its ring owner and proxies the
// request verbatim. The router holds no session state — it can restart at
// any time, and two routers over the same replica set agree on every
// placement.
//
//	GET    /healthz              — router liveness + per-replica passive health
//	GET    /version              — build identity
//	GET    /metrics              — pmwcm_route_* registry (when configured)
//	GET    /v1/route/{id}        — placement debug: which replica owns id
//	POST   /v1/sessions          — mint (or honor) an id, create on its owner
//	GET    /v1/sessions          — fan-out listing across up replicas
//	*      /v1/sessions/{id}...  — forward to the id's owner
//	GET    /v1/losses, /v1/accountants, /v1/defaults — forward to any up replica
//
// A request pinned to a down replica fails fast with HTTP 503, a typed
// JSON body naming the replica, and a Retry-After header — except
// GET /v1/sessions/{id}/transcript, which falls back to the session's
// last checkpoint in the shared blob store when one is configured.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// maxBodyBytes caps forwarded request bodies (mirrors the service's own
// cap; the router must not be a wider funnel than its backends).
const maxBodyBytes = 1 << 20

// maxProxyRespBytes caps forwarded response bodies (transcripts grow with
// the interaction but are bounded by session caps well under this).
const maxProxyRespBytes = 64 << 20

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		up := 0
		for _, rep := range rt.replicas {
			if rep.up() {
				up++
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"ok":          true,
			"role":        "router",
			"uptime_sec":  time.Since(rt.started).Seconds(),
			"replicas":    rt.Replicas(),
			"replicas_up": up,
		})
	})

	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, obs.Version())
	})

	if rt.met != nil && rt.met.reg != nil {
		mux.Handle("GET /metrics", obs.MetricsHandler(rt.met.reg))
	}

	mux.HandleFunc("GET /v1/route/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		rep := rt.owner(id)
		writeJSON(w, http.StatusOK, map[string]any{
			"id": id, "replica": rep.name, "url": rep.base.String(), "up": rep.up(),
		})
	})

	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("GET /v1/sessions", rt.handleList)

	byPin := func(w http.ResponseWriter, r *http.Request) {
		rt.forwardTo(w, r, rt.owner(r.PathValue("id")))
	}
	mux.HandleFunc("/v1/sessions/{id}", byPin)
	mux.HandleFunc("/v1/sessions/{id}/query", byPin)
	mux.HandleFunc("/v1/sessions/{id}/queries:batch", byPin)
	mux.HandleFunc("/v1/sessions/{id}/snapshot", byPin)
	mux.HandleFunc("GET /v1/sessions/{id}/transcript", rt.handleTranscript)

	// Replica-agnostic catalog endpoints: any up replica answers.
	anyUp := func(w http.ResponseWriter, r *http.Request) {
		for _, rep := range rt.replicas {
			if rep.up() {
				rt.forwardTo(w, r, rep)
				return
			}
		}
		rt.unavailable(w, rt.replicas[0])
	}
	mux.HandleFunc("GET /v1/losses", anyUp)
	mux.HandleFunc("GET /v1/accountants", anyUp)
	mux.HandleFunc("GET /v1/defaults", anyUp)

	return mux
}

// handleCreate mints the session id (or honors a caller-pinned one),
// injects it into the create body, and forwards to the id's owner — the
// step that makes every later request for the session routable by pure
// hashing.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("route: reading create body: %w", err))
		return
	}
	params := map[string]any{}
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &params); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("route: decoding create body: %w", err))
			return
		}
	}
	var rep *replica
	if id, _ := params["id"].(string); id != "" {
		// A caller-pinned id routes like any other request for it; the
		// caller owns the consequence of pinning onto a down replica.
		rep = rt.owner(id)
	} else {
		var id string
		if id, rep, err = rt.newSessionID(); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		params["id"] = id
	}
	pinned, err := json.Marshal(params)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("route: encoding create body: %w", err))
		return
	}
	r.Header.Set("Content-Type", "application/json")
	rt.proxy(w, r, rep, pinned)
}

// handleList fans the session listing out to every up replica and merges,
// annotating each status with its replica. Down replicas are skipped —
// a partial listing with the reachable shards beats a failed one (their
// absence is visible in /healthz and pmwcm_route_replica_up).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	var all []map[string]any
	for _, rep := range rt.replicas {
		if !rep.up() {
			continue
		}
		status, _, body, err := rt.do(r, rep, nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var doc struct {
			Sessions []map[string]any `json:"sessions"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			continue
		}
		for _, s := range doc.Sessions {
			s["replica"] = rep.name
			all = append(all, s)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, _ := all[i]["id"].(string)
		b, _ := all[j]["id"].(string)
		return a < b
	})
	writeJSON(w, http.StatusOK, map[string]any{"sessions": all})
}

// handleTranscript forwards to the pin, falling back to the shared blob
// store when the owner is down: the audit artifact must outlive any
// single replica.
func (rt *Router) handleTranscript(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep := rt.owner(id)
	if rep.up() {
		status, hdr, body, err := rt.do(r, rep, nil)
		if err == nil {
			copyResponse(w, status, hdr, body)
			return
		}
	}
	rec, err := rt.storedTranscript(rep, id)
	if err != nil {
		rt.unavailable(w, rep)
		return
	}
	w.Header().Set("X-Pmwcm-Transcript-Source", "store")
	writeJSON(w, http.StatusOK, rec)
}

// forwardTo proxies the request (body re-read here) to rep.
func (rt *Router) forwardTo(w http.ResponseWriter, r *http.Request, rep *replica) {
	var body []byte
	if r.Body != nil {
		var err error
		if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("route: reading request body: %w", err))
			return
		}
	}
	rt.proxy(w, r, rep, body)
}

// proxy is the single forwarding funnel: fail fast on a down replica,
// relay the response verbatim otherwise, and convert transport failures
// into the typed 503 after starting the cool-down.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, rep *replica, body []byte) {
	if !rep.up() {
		rt.unavailable(w, rep)
		return
	}
	status, hdr, respBody, err := rt.do(r, rep, body)
	if err != nil {
		rt.unavailable(w, rep)
		return
	}
	copyResponse(w, status, hdr, respBody)
}

// do executes one forwarded request against rep and classifies the
// outcome into the router metrics. It returns the replica's status,
// headers and body. A transport error marks rep down.
func (rt *Router) do(r *http.Request, rep *replica, body []byte) (int, http.Header, []byte, error) {
	u := *rep.base
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	// The request id joins the router's log line with the replica's.
	if id := r.Header.Get(obs.RequestIDHeader); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.markDown(rep)
		rt.met.request(rep.name, "error", time.Since(start).Seconds())
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyRespBytes))
	if err != nil {
		rt.markDown(rep)
		rt.met.request(rep.name, "error", time.Since(start).Seconds())
		return 0, nil, nil, err
	}
	rt.met.request(rep.name, strconv.Itoa(resp.StatusCode/100)+"xx", time.Since(start).Seconds())
	return resp.StatusCode, resp.Header, respBody, nil
}

// unavailable is the typed replica-down reply: 503, Retry-After, and a
// body naming the shard so clients and the fleet CI can distinguish "your
// replica is down" from overload.
func (rt *Router) unavailable(w http.ResponseWriter, rep *replica) {
	w.Header().Set("Retry-After", strconv.Itoa(int((rt.retryAfter+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":   fmt.Sprintf("route: replica %s unavailable", rep.name),
		"replica": rep.name,
	})
}

// copyResponse relays a replica's reply: its status, its body, and its
// Retry-After when it has one (a replica's own 503s carry it).
func copyResponse(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
