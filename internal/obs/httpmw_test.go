package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// testMux mirrors the service's route shapes: a collection route, a
// session-scoped route with an {id} path value, and an error route.
func testMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ping", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("pong"))
	})
	mux.HandleFunc("POST /v1/sessions/{id}/query", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("GET /v1/fail", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	return mux
}

func TestMiddlewareMetricsByRouteAndClass(t *testing.T) {
	reg := NewRegistry()
	h := Middleware(reg, testMux(), MiddlewareOptions{})

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/ping", nil))
		if rec.Code != 200 {
			t.Fatalf("ping code %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/fail", nil))
	if rec.Code != 500 {
		t.Fatalf("fail code %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/no/such/route", nil))

	count := func(route, class string) uint64 {
		return reg.Counter("pmwcm_http_requests_total", "",
			Labels{"route": route, "class": class}).Value()
	}
	if got := count("GET /v1/ping", "2xx"); got != 3 {
		t.Errorf("ping 2xx = %d, want 3", got)
	}
	if got := count("GET /v1/fail", "5xx"); got != 1 {
		t.Errorf("fail 5xx = %d, want 1", got)
	}
	if got := count("unmatched", "4xx"); got != 1 {
		t.Errorf("unmatched 4xx = %d, want 1", got)
	}
	// The latency histogram recorded each routed request under its
	// pattern, not its raw URL.
	hist := reg.Histogram("pmwcm_http_request_seconds", "", DefBuckets,
		Labels{"route": "GET /v1/ping"})
	if n := hist.snapshot().Count; n != 3 {
		t.Errorf("ping latency count = %d, want 3", n)
	}
}

func TestMiddlewareRequestIDs(t *testing.T) {
	h := Middleware(NewRegistry(), testMux(), MiddlewareOptions{})

	// A well-formed incoming id is echoed.
	req := httptest.NewRequest("GET", "/v1/ping", nil)
	req.Header.Set(RequestIDHeader, "client-id_1.a")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got != "client-id_1.a" {
		t.Errorf("valid id not echoed: %q", got)
	}

	// Malformed ids are replaced, and generated ids are unique.
	seen := map[string]bool{}
	for _, bad := range []string{"", "has space", "ünicode", strings.Repeat("x", 65), "semi;colon"} {
		req := httptest.NewRequest("GET", "/v1/ping", nil)
		if bad != "" {
			req.Header.Set(RequestIDHeader, bad)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get(RequestIDHeader)
		if got == bad || got == "" || !validRequestID(got) {
			t.Errorf("bad id %q passed through as %q", bad, got)
		}
		if seen[got] {
			t.Errorf("generated id %q repeated", got)
		}
		seen[got] = true
	}
}

// TestMiddlewareGeneratedRequestIDsAreRandom pins the generated id format:
// 32 lowercase hex digits, distinct across requests, with no shared prefix
// or counter that would tell one client how many requests others made.
func TestMiddlewareGeneratedRequestIDsAreRandom(t *testing.T) {
	h := Middleware(NewRegistry(), testMux(), MiddlewareOptions{})
	format := regexp.MustCompile(`^[0-9a-f]{32}$`)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/ping", nil))
		id := rec.Header().Get(RequestIDHeader)
		if !format.MatchString(id) || !validRequestID(id) {
			t.Fatalf("generated id %q is not 32 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("generated id %q repeated after %d requests", id, i)
		}
		seen[id] = true
	}
}

func TestMiddlewareStructuredLogs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	reg := NewRegistry()
	h := Middleware(reg, testMux(), MiddlewareOptions{
		Logger: logger,
		SessionInfo: func(id string) (string, bool) {
			if id == "s-000001" {
				return "advanced", true
			}
			return "", false
		},
	})

	req := httptest.NewRequest("POST", "/v1/sessions/s-000001/query", nil)
	req.Header.Set(RequestIDHeader, "req-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	for key, want := range map[string]any{
		"level":      "INFO",
		"msg":        "request",
		"method":     "POST",
		"route":      "POST /v1/sessions/{id}/query",
		"status":     float64(201),
		"request_id": "req-42",
		"session":    "s-000001",
		"accountant": "advanced",
	} {
		if got := line[key]; got != want {
			t.Errorf("log[%q] = %v, want %v", key, got, want)
		}
	}
	if _, ok := line["duration_ms"]; !ok {
		t.Error("log line missing duration_ms")
	}

	// 5xx logs at error level.
	buf.Reset()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/fail", nil))
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line["level"] != "ERROR" {
		t.Errorf("5xx logged at %v, want ERROR", line["level"])
	}

	// A logger above the line's level suppresses the log but not the
	// metrics.
	quiet := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelError}))
	h = Middleware(reg, testMux(), MiddlewareOptions{Logger: quiet})
	buf.Reset()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/ping", nil))
	if buf.Len() != 0 {
		t.Errorf("info line logged at error level: %q", buf.String())
	}
}

func TestStatusWriterDefaultsTo200(t *testing.T) {
	reg := NewRegistry()
	silent := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	h := Middleware(reg, silent, MiddlewareOptions{})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	if got := reg.Counter("pmwcm_http_requests_total", "",
		Labels{"route": "unmatched", "class": "2xx"}).Value(); got != 1 {
		t.Fatalf("silent handler class counter = %d, want 1 under 2xx", got)
	}
}
