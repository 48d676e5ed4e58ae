package main

import (
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/convex"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/fault"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/sample"
)

// Span names, one per seam the traced run wraps. Every wrapper sits at a
// public seam of the program; nothing is added inside it.
const (
	spanRoute   = "route.handler"   // the router's HTTP handler
	spanForward = "route.forward"   // router → replica round trip (route.Options.Client)
	spanService = "service.handler" // a replica's HTTP handler (service.NewHandler)
	spanRemote  = "persist.remote"  // replica → blob store round trip (persist.RemoteOptions.Client)
	spanSave    = "persist.save"    // persist.Backend.SaveSession
	spanLoad    = "persist.load"    // persist.Backend.LoadSession
	spanFsync   = "persist.fsync"   // fault.File.Sync under the state dir or blob root
	spanAnswer  = "core.answer"     // core.Server.Answer in the replay
	spanOracle  = "erm.oracle"      // erm.Oracle.Answer in the replay
)

// benchIDHeader carries the client's request id from the router to the
// replica: the router forwards only Content-Type, so the benchmark's own
// router round tripper injects it.
const benchIDHeader = "X-Pmwbench-Request"

// span is one timed call at a seam. ID is the client's request id where a
// header or context carries one; seams without a request context (store,
// disk, oracle, sweeps) are reported in aggregate.
type span struct {
	Name  string `json:"name"`
	ID    string `json:"id,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, and its wrappers return what they wrap.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	written atomic.Int64 // bytes written through the durability seam
	sweeps  sweepStats
}

// sweepStats aggregates universe sweeps, which come by the thousand per
// query and last about a microsecond each: too many to keep as spans.
type sweepStats struct {
	inOracle  atomic.Bool // the replay is inside an oracle call
	mu        sync.Mutex
	us        []float32 // every sweep's duration
	outsideMS float64   // sweep time outside oracle calls
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, id string, start, end time.Time, bytes int64) {
	s := span{Name: name, ID: id, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type idKey struct{}

// handler times an HTTP handler, keyed by the request id, and hands the
// id on through the request context to the round tripper of a router.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.RequestIDHeader)
		if id == "" {
			id = r.Header.Get(benchIDHeader)
		}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), idKey{}, id)))
		t.add(name, id, start, time.Now(), 0)
	})
}

// transport returns the RoundTripper for an outgoing HTTP seam: the
// default one, timed until the response body is closed when tracing.
func (t *tracer) transport(name string) http.RoundTripper {
	if t == nil {
		return http.DefaultTransport
	}
	return tracedTransport{t: t, name: name, base: http.DefaultTransport}
}

type tracedTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(idKey{}).(string)
	if id != "" {
		req = req.Clone(req.Context())
		req.Header.Set(benchIDHeader, id)
	}
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.add(tt.name, id, start, time.Now(), req.ContentLength)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { tt.t.add(tt.name, id, start, time.Now(), req.ContentLength) }}
	return resp, nil
}

// timedBody ends a round-trip span when the caller closes the body.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// backend wraps a persist.Backend, timing session saves and loads.
func (t *tracer) backend(b persist.Backend) persist.Backend {
	if t == nil {
		return b
	}
	return tracedBackend{Backend: b, t: t}
}

type tracedBackend struct {
	persist.Backend
	t *tracer
}

func (b tracedBackend) SaveSession(st *persist.SessionState) error {
	start := time.Now()
	err := b.Backend.SaveSession(st)
	b.t.add(spanSave, "", start, time.Now(), 0)
	return err
}

func (b tracedBackend) LoadSession(id string) (*persist.SessionState, error) {
	start := time.Now()
	st, err := b.Backend.LoadSession(id)
	b.t.add(spanLoad, "", start, time.Now(), 0)
	return st, err
}

// fs returns the filesystem seam persist writes through: fault.OS, with
// fsyncs timed and written bytes counted when tracing.
func (t *tracer) fs() fault.FS {
	if t == nil {
		return fault.OS
	}
	return tracedFS{FS: fault.OS, t: t}
}

type tracedFS struct {
	fault.FS
	t *tracer
}

func (f tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, t: f.t}, nil
}

func (f tracedFS) CreateTemp(dir, pattern string) (fault.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, t: f.t}, nil
}

type tracedFile struct {
	fault.File
	t *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.t.written.Add(int64(n))
	return n, err
}

func (f tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.add(spanFsync, "", start, time.Now(), 0)
	return err
}

// tracedOracle times oracle calls. It reports the wrapped oracle's privacy
// cost, so the accountant composes exactly the spends it would unwrapped.
type tracedOracle struct {
	erm.Oracle
	t *tracer
}

func (o tracedOracle) Answer(src *sample.Source, l convex.Loss, data *dataset.Dataset, eps, delta float64) ([]float64, error) {
	o.t.sweeps.inOracle.Store(true)
	start := time.Now()
	theta, err := o.Oracle.Answer(src, l, data, eps, delta)
	o.t.add(spanOracle, "", start, time.Now(), 0)
	o.t.sweeps.inOracle.Store(false)
	return theta, err
}

// AnswerCost implements erm.CostReporter with the wrapped oracle's cost.
func (o tracedOracle) AnswerCost(eps, delta float64) mech.Cost {
	return erm.CostOf(o.Oracle, eps, delta)
}

// sweepObserver is the xeval observer of the replay. The replay runs on
// one goroutine and xeval reports on the sweeping goroutine, so a sweep
// reported during an oracle call is the oracle's own.
func (t *tracer) sweepObserver(chunks, workers int, seconds float64) {
	s := &t.sweeps
	s.mu.Lock()
	s.us = append(s.us, float32(seconds*1e6))
	if !s.inOracle.Load() {
		s.outsideMS += seconds * 1000
	}
	s.mu.Unlock()
}

// writeTrace saves the spans, with the client's operations as spans too.
func (t *tracer) writeTrace(path, workload string, seed int64, ops []op) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for _, o := range ops {
		end := o.start.Add(time.Duration(o.ms * 1e6))
		spans = append(spans, span{Name: "client." + o.kind, ID: o.id, Start: o.start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	t.sweeps.mu.Lock()
	sweeps := map[string]any{"count": len(t.sweeps.us), "outside_oracle_ms": t.sweeps.outsideMS}
	t.sweeps.mu.Unlock()
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": spans, "xeval_sweeps": sweeps})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
