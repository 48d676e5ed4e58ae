package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// declared reads the repository's BENCHMARK.json.
func declared(t *testing.T) (d struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclarationMatchesCode(t *testing.T) {
	d := declared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, d.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s %s, the code %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd)
	check("per_layer", d.PerLayer, perLayer)
}

// tiny shrinks a workload to a few seconds of work.
func tiny(w *workload) *workload {
	c := *w
	switch c.name {
	case "fleet_churn":
		f := *c.fleet
		f.cycles, f.bursts, f.batches = 1, 2, 2
		c.fleet = &f
	case "hot_mixed":
		c.queries = 120
	case "miss_large":
		c.queries, c.rows = 3, 20000
	default:
		c.queries = 40
	}
	return &c
}

// TestWorkloadsTiny runs every workload at tiny size twice against the
// real processes and once traced in process: every declared metric must
// be emitted, every answer must match the replay, and the digests must
// repeat across runs and between the untraced and the traced run.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pmwcm and boots servers")
	}
	d := declared(t)
	dir := t.TempDir()
	bin, err := buildPMWCM("../..", dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			var digests []map[string]string
			for i := 0; i < 2; i++ {
				r, err := newRunner(w, 7, t.TempDir(), bin)
				if err != nil {
					t.Fatal(err)
				}
				r.minRequests = 0
				out, err := r.runProcesses(ctx, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !out.correct() {
					t.Fatalf("process run %d: failed %d of %d, problems %v", i, out.failed, out.attempted, out.problems)
				}
				rep := endToEndReport(w, out)
				for _, m := range d.EndToEnd {
					if v, ok := rep.metrics[m.Name]; !ok || v.Value <= 0 {
						t.Errorf("end-to-end metric %s: %v (emitted %v)", m.Name, v, ok)
					}
				}
				digests = append(digests, out.digests())
			}
			r, err := newRunner(w, 7, t.TempDir(), "")
			if err != nil {
				t.Fatal(err)
			}
			out, err := r.runTraced(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct() {
				t.Fatalf("traced run: failed %d of %d, problems %v", out.failed, out.attempted, out.problems)
			}
			rep := layerReport(w, out, r.tr)
			for _, m := range d.PerLayer {
				if _, ok := rep.metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s not emitted", m.Name)
				}
			}
			traced := map[string]string{}
			for _, sl := range out.rounds[0].sessions {
				traced[sl.key.String()] = digest(sl.answers)
			}
			digests = append(digests, out.digests(), traced)
			for i := 1; i < len(digests); i++ {
				if len(digests[i]) != len(w.keys(0)) || !mapsEqual(digests[i], digests[0]) {
					t.Errorf("digests differ between runs: %v vs %v", digests[0], digests[i])
				}
			}
			if w.fleet != nil && rep.details["service.pagein_ratio"].Value < 0.9 {
				t.Errorf("fleet page-in ratio %v, want ≥ 0.9", rep.details["service.pagein_ratio"])
			}
		})
	}
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestCheckRecorded pins the seed-1 digest check: a differing digest, and
// a session on only one side, each make the run incorrect.
func TestCheckRecorded(t *testing.T) {
	ans := []answer{{disp: dispTop, vals: []float64{0.5}}}
	out := &outcome{rounds: []*round{{load: &load{sessions: []sessionLog{
		{key: sessionKey{0, 0}, answers: ans},
		{key: sessionKey{1, 0}, answers: ans},
	}}}}}
	d := digest(ans)
	for _, c := range []struct {
		name     string
		want     map[string]string
		problems int
	}{
		{"match", map[string]string{"w0-c0": d, "w1-c0": d}, 0},
		{"differs", map[string]string{"w0-c0": d, "w1-c0": "x"}, 1},
		{"unrecorded session", map[string]string{"w0-c0": d}, 1},
		{"recorded session missing", map[string]string{"w0-c0": d, "w1-c0": d, "w2-c0": d}, 1},
	} {
		o := *out
		o.problems = nil
		o.checkRecorded(c.want)
		if len(o.problems) != c.problems {
			t.Errorf("%s: problems %v, want %d", c.name, o.problems, c.problems)
		}
	}
}

// TestRefusedRequestsCarryNoLatency pins the latency accounting: a
// request the server refuses counts as attempted and failed, and adds no
// latency sample, however fast the refusal.
func TestRefusedRequestsCarryNoLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"service: session budget exhausted"}`))
	}))
	defer srv.Close()
	w := tiny(workloads[0])
	d := newLoader(srv.URL, "t")
	defer d.closeIdle()
	l := d.runClosed(context.Background(), w, 1, []string{"s-1", "s-2"})
	out := &outcome{rounds: []*round{{load: l, seconds: 1}}}
	out.count(l.ops)
	if out.attempted != 2*w.queries || out.failed != out.attempted {
		t.Fatalf("attempted %d failed %d, want %d refused", out.attempted, out.failed, 2*w.queries)
	}
	if lat := latencies(l.ops, isQuery); len(lat) != 0 {
		t.Fatalf("%d latency samples from refused requests", len(lat))
	}
}

// TestQuartilesMatchPython pins the spread computation to Python's
// statistics.quantiles(xs, n=4), which the benchmark's consumers use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	noisy := []float64{6, 14, 7, 13, 10, 8, 12, 9, 11, 10}
	for i, v := range parent {
		faster[i], slower[i] = v*0.8, v*1.4
	}
	for _, c := range []struct {
		name      string
		b         []float64
		failsMore bool
		prefix    string
	}{
		{"gain", faster, false, "gain"},
		{"gain with more failures", faster, true, "within bound"},
		{"regression", slower, false, "regression"},
		{"unchanged", parent, false, "within bound"},
		{"noisy", noisy, false, "unresolved"},
	} {
		if got := judge(parent, c.b, true, 0.25, c.failsMore).verdict; !strings.HasPrefix(got, c.prefix) {
			t.Errorf("%s: verdict %q, want %s", c.name, got, c.prefix)
		}
	}
}

// TestCompareSides pins what compare does with wrong answers and failed
// operations: a side with a wrong answer is invalid, and a change that
// fails a larger share of its operations gets no gain.
func TestCompareSides(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, i int, res result) {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		res.Workload, res.Time = "w", fmt.Sprintf("2026-01-01T00:00:%02dZ", i)
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, fmt.Sprintf("%d.json", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		write("parent", i, result{Correct: true, Attempted: 100})
		write("change", i, result{Correct: i != 1, Attempted: 100, Failed: i})
	}
	a, err := loadResults(filepath.Join(dir, "parent"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadResults(filepath.Join(dir, "change"))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a["w"], b["w"]
	if pb.correct != 2 || pb.failed != 3 || pb.attempted != 300 {
		t.Fatalf("change side: %d correct, %d/%d failed", pb.correct, pb.failed, pb.attempted)
	}
	if !pb.failsMore(pa) || pa.failsMore(pb) {
		t.Errorf("failsMore: change %v, parent %v", pb.failsMore(pa), pa.failsMore(pb))
	}
	if v := validity(pa, pb); !strings.HasPrefix(v, "INVALID: the change") {
		t.Errorf("validity %q", v)
	}
	if v := validity(pa, pa); v != "all answers checked" {
		t.Errorf("validity of a clean side against itself %q", v)
	}
}
