package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter", nil)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestNilRegistryAndInstrumentsNoOp(t *testing.T) {
	var r *Registry
	// Nothing here may panic; every method must be a no-op.
	c := r.Counter("x", "", nil)
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	h := r.Histogram("x", "", DefBuckets, nil)
	h.Observe(0.1)
	if h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram not a no-op")
	}
	r.RegisterCollector(func(emit func(Sample)) { emit(Sample{Name: "y"}) })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot != nil")
	}
}

func TestGetOrCreateMemoized(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("n", "", Labels{"k": "v", "j": "w"})
	// Same label set in a different map must address the same instrument.
	b := r.Counter("n", "", Labels{"j": "w", "k": "v"})
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	other := r.Counter("n", "", Labels{"k": "other"})
	if other == a {
		t.Fatal("distinct label sets shared an instrument")
	}
}

func TestLabelsClonedOnRegister(t *testing.T) {
	r := NewRegistry()
	l := Labels{"k": "v"}
	r.Counter("n", "", l).Inc()
	l["k"] = "mutated"
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Samples[0].Labels["k"] != "v" {
		t.Fatalf("registry labels follow caller mutation: %+v", snap)
	}
}

func TestKindClashReturnsDetachedInstrument(t *testing.T) {
	r := NewRegistry()
	r.Counter("n", "", nil).Inc()
	h := r.Histogram("n", "", DefBuckets, nil) // same name, wrong kind
	h.Observe(1)                               // must not panic or corrupt the family
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindCounter || snap[0].Samples[0].Value != 1 {
		t.Fatalf("kind clash corrupted the family: %+v", snap)
	}
}

func TestSnapshotSortedAndCollectorMerge(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees", nil).Add(2)
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "a_gauge", Help: "ays", Labels: Labels{"x": "1"}, Value: 7})
		emit(Sample{Name: "b_total", Labels: Labels{"src": "collector"}, Value: 3})
	})
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a_gauge" || snap[1].Name != "b_total" {
		t.Fatalf("snapshot not sorted by name: %+v", snap)
	}
	if snap[0].Kind != KindGauge || snap[0].Samples[0].Value != 7 {
		t.Fatalf("collector-created family wrong: %+v", snap[0])
	}
	// The collector sample merged into the existing counter family.
	if len(snap[1].Samples) != 2 {
		t.Fatalf("collector sample did not merge into b_total: %+v", snap[1])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests", Labels{"route": "/x", "class": "2xx"}).Add(3)
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "temp", Help: "with\nnewline", Value: 1.5})
	})
	r.Histogram("lat_seconds", "latency", []float64{0.1, 1}, nil).Observe(0.05)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{class="2xx",route="/x"} 3`,
		"# HELP temp with newline",
		"temp 1.5",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_sum 0.05",
		"lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", nil).Inc()
	h := MetricsHandler(r)

	for _, q := range []string{"", "?format=prom", "?format=prometheus"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics"+q, nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), "c_total 1") {
			t.Fatalf("%q: code %d body %q", q, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("%q: content-type %q", q, ct)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if rec.Code != 200 {
		t.Fatalf("json: code %d", rec.Code)
	}
	var snap struct {
		Families []FamilySnapshot `json:"families"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("json: %v", err)
	}
	if len(snap.Families) != 1 || snap.Families[0].Name != "c_total" || snap.Families[0].Samples[0].Value != 1 {
		t.Fatalf("json families = %+v", snap.Families)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=xml", nil))
	if rec.Code != 400 {
		t.Fatalf("unknown format: code %d, want 400", rec.Code)
	}
}

func TestBucketCountJSONInf(t *testing.T) {
	b, err := json.Marshal(BucketCount{LE: 0.5, Count: 2})
	if err != nil || string(b) != `{"le":"0.5","count":2}` {
		t.Fatalf("finite bucket: %s, %v", b, err)
	}
	h := newHistogram([]float64{1})
	h.Observe(5)
	raw, err := json.Marshal(h.snapshot().Buckets)
	if err != nil || !strings.Contains(string(raw), `"le":"+Inf"`) {
		t.Fatalf("overflow bucket JSON: %s, %v", raw, err)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c_total", "", Labels{"w": "x"}).Inc()
				r.Histogram("h_seconds", "", DefBuckets, nil).Observe(0.001)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "", Labels{"w": "x"}).Value(); got != 8*200 {
		t.Fatalf("counter = %d, want %d", got, 8*200)
	}
}

func TestVersion(t *testing.T) {
	v := Version()
	if v.GoVersion == "" || v.Version == "" {
		t.Fatalf("version info incomplete: %+v", v)
	}
	if s := v.String(); s == "" {
		t.Fatal("empty version string")
	}
}
