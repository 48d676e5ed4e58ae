package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenRegistry is the fixed registry both exposition goldens render:
// counters with and without labels, a labelled histogram with two
// observations past its largest bound, and a collector gauge.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("req_total", "requests served", Labels{"route": "/v1/q", "class": "2xx"}).Add(7)
	r.Counter("req_total", "requests served", Labels{"route": "/v1/q", "class": "5xx"}).Inc()
	r.Counter("restarts_total", "", nil)
	lat := r.Histogram("lat_seconds", "request latency", []float64{0.1, 1}, Labels{"route": "/v1/q"})
	for _, v := range []float64{0.05, 0.5, 0.75, 3, 7} {
		lat.Observe(v)
	}
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "sessions_live", Help: "open sessions", Labels: Labels{"replica": "r1"}, Value: 2})
	})
	return r
}

// TestWritePrometheusGolden pins the Prometheus text exposition byte for
// byte.
func TestWritePrometheusGolden(t *testing.T) {
	const want = `# HELP lat_seconds request latency
# TYPE lat_seconds histogram
lat_seconds_bucket{route="/v1/q",le="0.1"} 1
lat_seconds_bucket{route="/v1/q",le="1"} 3
lat_seconds_bucket{route="/v1/q",le="+Inf"} 5
lat_seconds_sum{route="/v1/q"} 11.3
lat_seconds_count{route="/v1/q"} 5
# HELP req_total requests served
# TYPE req_total counter
req_total{class="2xx",route="/v1/q"} 7
req_total{class="5xx",route="/v1/q"} 1
# TYPE restarts_total counter
restarts_total 0
# HELP sessions_live open sessions
# TYPE sessions_live gauge
sessions_live{replica="r1"} 2
`
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("prometheus exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMetricsJSONGolden pins the ?format=json body byte for byte, except
// for the p50/p90/p99 keys, which are not part of the golden.
func TestMetricsJSONGolden(t *testing.T) {
	const want = `{
  "families": [
    {
      "name": "lat_seconds",
      "kind": "histogram",
      "help": "request latency",
      "samples": [
        {
          "labels": {
            "route": "/v1/q"
          },
          "value": 5,
          "count": 5,
          "sum": 11.3,
          "buckets": [
            {
              "le": "0.1",
              "count": 1
            },
            {
              "le": "1",
              "count": 3
            },
            {
              "le": "+Inf",
              "count": 5
            }
          ]
        }
      ]
    },
    {
      "name": "req_total",
      "kind": "counter",
      "help": "requests served",
      "samples": [
        {
          "labels": {
            "class": "2xx",
            "route": "/v1/q"
          },
          "value": 7
        },
        {
          "labels": {
            "class": "5xx",
            "route": "/v1/q"
          },
          "value": 1
        }
      ]
    },
    {
      "name": "restarts_total",
      "kind": "counter",
      "samples": [
        {
          "value": 0
        }
      ]
    },
    {
      "name": "sessions_live",
      "kind": "gauge",
      "help": "open sessions",
      "samples": [
        {
          "labels": {
            "replica": "r1"
          },
          "value": 2
        }
      ]
    }
  ]
}
`
	rec := httptest.NewRecorder()
	MetricsHandler(goldenRegistry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if rec.Code != 200 {
		t.Fatalf("code %d", rec.Code)
	}
	var kept []string
	for _, line := range strings.SplitAfter(rec.Body.String(), "\n") {
		switch k := strings.TrimSpace(line); {
		case strings.HasPrefix(k, `"p50":`), strings.HasPrefix(k, `"p90":`), strings.HasPrefix(k, `"p99":`):
		default:
			kept = append(kept, line)
		}
	}
	if got := strings.Join(kept, ""); got != want {
		t.Fatalf("json exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
