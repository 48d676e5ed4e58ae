package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"time"
)

// RequestIDHeader is the header the middleware reads an incoming request
// id from and writes the effective id to on every response and on the
// request itself, so a handler that forwards the request (the router) can
// pass the id on and both hops log the same value.
const RequestIDHeader = "X-Request-ID"

// MiddlewareOptions configure Middleware beyond its registry.
type MiddlewareOptions struct {
	// Logger receives one structured line per request (method, route,
	// status, duration, request id, and — when resolvable — session and
	// accountant). nil disables logging; metrics still record.
	Logger *slog.Logger
	// SessionInfo resolves a request's session path value to its
	// accountant name for log enrichment. Optional; it must be read-only
	// and cheap, as it runs on every logged session-scoped request.
	SessionInfo func(sessionID string) (accountant string, ok bool)
}

// Middleware wraps next with per-route metrics and structured request
// logging. It records pmwcm_http_requests_total{route,class} and the
// pmwcm_http_request_seconds{route} latency histogram, assigns each
// request an id (echoing a well-formed incoming X-Request-ID, otherwise
// generating one), and logs at Info/Warn/Error for 2xx-3xx/4xx/5xx.
//
// Generated request ids are 16 bytes from crypto/rand, hex-encoded: they
// never draw from the mechanism's seeded noise streams, preserving the
// invariant that observability cannot perturb released answers, and,
// echoed to every client, they say nothing about other requests. The
// route label is the mux pattern (Go 1.22+ ServeMux records it on the
// request during dispatch), so label cardinality is bounded by the route
// table, not by raw URLs.
func Middleware(reg *Registry, next http.Handler, opts MiddlewareOptions) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := requestID(r)
		r.Header.Set(RequestIDHeader, id)
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)

		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := sw.status()
		class := fmt.Sprintf("%dxx", status/100)
		elapsed := time.Since(start)
		reg.Counter("pmwcm_http_requests_total",
			"HTTP requests served, by route pattern and status class.",
			Labels{"route": route, "class": class}).Inc()
		reg.Histogram("pmwcm_http_request_seconds",
			"HTTP request latency in seconds, by route pattern.",
			DefBuckets, Labels{"route": route}).Observe(elapsed.Seconds())

		if opts.Logger == nil {
			return
		}
		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelError
		case status >= 400:
			level = slog.LevelWarn
		}
		if !opts.Logger.Enabled(r.Context(), level) {
			return
		}
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Float64("duration_ms", float64(elapsed.Nanoseconds())/1e6),
			slog.String("request_id", id),
		}
		if sid := r.PathValue("id"); sid != "" {
			attrs = append(attrs, slog.String("session", sid))
			if opts.SessionInfo != nil {
				if acct, ok := opts.SessionInfo(sid); ok {
					attrs = append(attrs, slog.String("accountant", acct))
				}
			}
		}
		opts.Logger.LogAttrs(r.Context(), level, "request", attrs...)
	})
}

// requestID returns the request's effective id: the incoming header when
// it is well-formed, else 32 hex digits of fresh crypto/rand bytes.
func requestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); validRequestID(id) {
		return id
	}
	var b [16]byte
	// Go 1.24's Read never returns an error; an older one's would leave b
	// zero, which reveals nothing and only blurs log joins.
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// validRequestID accepts short printable tokens (letters, digits, and
// -._) so arbitrary client bytes never pass through into logs verbatim.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_':
		default:
			return false
		}
	}
	return true
}

// statusWriter captures the response status code (and whether a write
// happened) for the metrics and log line.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write implies 200 on first write, matching net/http.
func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer when it supports flushing, so
// wrapping does not break streaming handlers.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status returns the recorded code, defaulting to 200 for handlers that
// never wrote.
func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}
