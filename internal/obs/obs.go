// Package obs is the observability core of the serving subsystem: a
// small, dependency-free metrics layer (atomic counters, fixed-bucket
// rolling latency histograms, and gauges that collectors sample at
// scrape time) plus a registry that renders both Prometheus text format
// and JSON, and an HTTP middleware that adds per-route metrics and
// structured request logging (httpmw.go).
//
// Design constraints, in order:
//
//  1. Metrics must never perturb the mechanism. Instruments draw no
//     randomness, take no mechanism locks, and never touch budget,
//     transcript, or noise-stream state; enabling observability leaves
//     every released answer bit-identical (pinned by a golden test in
//     internal/service). Scrape-time collectors read session state
//     through the same read-only accessors the status endpoints use.
//  2. Hot-path updates are lock-free. Counter and Histogram updates
//     are single atomic operations (a CAS loop for float accumulation),
//     safe on the serving fast path; the registry's RWMutex is only
//     taken when an instrument is first created or the registry is
//     rendered.
//  3. Nil is off. A nil *Registry hands out nil instruments and every
//     instrument method no-ops on a nil receiver, so instrumented code
//     needs no "is observability enabled" branches.
//
// The registry renders on demand — GET /metrics (see MetricsHandler)
// returns Prometheus text by default and a structured JSON snapshot with
// ?format=json; the JSON form carries p50/p90/p99 readouts computed from
// each histogram's rolling window and is what `pmwcm loadtest` scrapes
// for its server-vs-client consistency gate.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions to an instrument (e.g. route, accountant).
// Instruments with the same name but different label sets are distinct
// samples of one metric family.
type Labels map[string]string

// key renders labels canonically (sorted, escaped) so equal label sets
// always address the same instrument.
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// clone copies labels so a caller mutating its map after registration
// cannot corrupt the registry's sample identity.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Counter is a monotonically non-decreasing cumulative count. All
// methods are safe for concurrent use and no-op on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// addFloatBits atomically adds delta to a float64 stored as bits.
func addFloatBits(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Metric family kinds, as rendered in both output formats.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Sample is one scrape-time metric point emitted by a CollectorFunc.
// Collector samples render as gauges.
type Sample struct {
	// Name is the metric family name.
	Name string
	// Help documents the family (first non-empty wins).
	Help string
	// Labels are the sample's dimensions.
	Labels Labels
	// Value is the sample's current value.
	Value float64
}

// CollectorFunc emits dynamic samples at scrape time — the mechanism for
// metrics whose cardinality changes at runtime (per-session gauges) or
// that are cheaper to compute on demand than to maintain. Collectors run
// while the registry is being rendered; they must be read-only with
// respect to the state they report.
type CollectorFunc func(emit func(Sample))

// family is one named metric with its instruments keyed by label set.
type family struct {
	name, help, kind string
	bounds           []float64 // histogram families only
	inst             map[string]instrumentEntry
}

type instrumentEntry struct {
	labels Labels
	c      *Counter
	h      *Histogram
}

// Registry owns metric families and scrape-time collectors. A nil
// registry is valid and hands out nil (no-op) instruments, so callers
// instrument unconditionally. Instrument creation is memoized: the same
// name and label set always returns the same instrument.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	collectors []CollectorFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns the instrument entry for (name, labels) if present.
func (r *Registry) lookup(name, key string) (instrumentEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.families[name]
	if !ok {
		return instrumentEntry{}, false
	}
	e, ok := f.inst[key]
	return e, ok
}

// register creates (or returns) the family and instrument slot under the
// write lock. A name registered under a different kind returns nil — the
// caller gets a detached no-op instrument rather than a corrupted family.
func (r *Registry) register(name, help, kind string, bounds []float64, labels Labels) *instrumentEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, inst: map[string]instrumentEntry{}}
		r.families[name] = f
	}
	if f.kind != kind {
		return nil
	}
	key := labels.key()
	e, ok := f.inst[key]
	if !ok {
		e = instrumentEntry{labels: labels.clone()}
		switch kind {
		case KindCounter:
			e.c = &Counter{}
		case KindHistogram:
			e.h = newHistogram(f.bounds)
		}
		f.inst[key] = e
	}
	return &e
}

// Counter returns the named counter for the given label set, creating it
// on first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	if e, ok := r.lookup(name, labels.key()); ok {
		return e.c
	}
	e := r.register(name, help, KindCounter, nil, labels)
	if e == nil {
		return &Counter{} // kind clash: detached, never rendered
	}
	return e.c
}

// Histogram returns the named histogram for the given label set,
// creating it on first use with the given bucket upper bounds (the
// family's first registration fixes the bounds; later calls reuse them).
// A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	if e, ok := r.lookup(name, labels.key()); ok {
		return e.h
	}
	e := r.register(name, help, KindHistogram, bounds, labels)
	if e == nil {
		return nil // kind clash: no-op histogram
	}
	return e.h
}

// RegisterCollector adds a scrape-time collector. No-op on a nil
// registry.
func (r *Registry) RegisterCollector(c CollectorFunc) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// LE is the bucket's inclusive upper bound (+Inf for the overflow
	// bucket, rendered as the JSON string "+Inf").
	LE float64 `json:"le"`
	// Count is the cumulative observation count at or below LE.
	Count uint64 `json:"count"`
}

// MarshalJSON renders +Inf as a string (JSON has no Inf literal).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.LE, 1) {
		le = fmt.Sprintf("%g", b.LE)
	}
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, le, b.Count)), nil
}

// SampleSnapshot is one rendered metric point. Counters and gauges carry
// Value; histograms carry Count/Sum/Buckets (lifetime, Prometheus
// semantics) plus P50/P90/P99 computed over the rolling window.
type SampleSnapshot struct {
	Labels  Labels        `json:"labels,omitempty"`
	Value   float64       `json:"value"`
	Count   uint64        `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	P50     float64       `json:"p50,omitempty"`
	P90     float64       `json:"p90,omitempty"`
	P99     float64       `json:"p99,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// FamilySnapshot is one rendered metric family.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Kind    string           `json:"kind"`
	Help    string           `json:"help,omitempty"`
	Samples []SampleSnapshot `json:"samples"`
}

// Snapshot renders every family (instruments plus collector output),
// sorted by name with samples sorted by label key. Safe for concurrent
// use with instrument updates; the result is a point-in-time read, not
// an atomic cut across instruments.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	collectors := append([]CollectorFunc(nil), r.collectors...)
	r.mu.RUnlock()

	byName := map[string]*FamilySnapshot{}
	keyed := map[string][]string{} // name → sorted sample keys (for ordering)
	for _, f := range fams {
		fs := &FamilySnapshot{Name: f.name, Kind: f.kind, Help: f.help}
		byName[f.name] = fs
		r.mu.RLock()
		keys := make([]string, 0, len(f.inst))
		entries := make(map[string]instrumentEntry, len(f.inst))
		for k, e := range f.inst {
			keys = append(keys, k)
			entries[k] = e
		}
		r.mu.RUnlock()
		sort.Strings(keys)
		keyed[f.name] = keys
		for _, k := range keys {
			e := entries[k]
			s := SampleSnapshot{Labels: e.labels}
			switch f.kind {
			case KindCounter:
				s.Value = float64(e.c.Value())
			case KindHistogram:
				s = e.h.snapshot()
				s.Labels = e.labels
			}
			fs.Samples = append(fs.Samples, s)
		}
	}
	// Collector samples render as gauges, merged into (or creating) their
	// named family.
	for _, c := range collectors {
		c(func(s Sample) {
			fs, ok := byName[s.Name]
			if !ok {
				fs = &FamilySnapshot{Name: s.Name, Kind: KindGauge, Help: s.Help}
				byName[s.Name] = fs
			}
			if fs.Help == "" {
				fs.Help = s.Help
			}
			fs.Samples = append(fs.Samples, SampleSnapshot{Labels: s.Labels.clone(), Value: s.Value})
		})
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]FamilySnapshot, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Snapshot() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, strings.ReplaceAll(f.Help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Samples {
			var err error
			if f.Kind == KindHistogram {
				err = writePromHistogram(w, f.Name, s)
			} else {
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.Name, promLabels(s.Labels, "", ""), promFloat(s.Value))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram renders one histogram sample's cumulative buckets,
// sum, and count.
func writePromHistogram(w io.Writer, name string, s SampleSnapshot) error {
	for _, b := range s.Buckets {
		le := "+Inf"
		if !math.IsInf(b.LE, 1) {
			le = fmt.Sprintf("%g", b.LE)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(s.Labels, "le", le), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(s.Labels, "", ""), promFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(s.Labels, "", ""), s.Count)
	return err
}

// promLabels renders a label set (plus an optional extra pair) in
// exposition syntax, or "" when empty.
func promLabels(l Labels, extraKey, extraVal string) string {
	if len(l) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(l)+1)
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, promEscape(l[k]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, promEscape(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// promEscape escapes a label value per the exposition format. %q adds
// quote and backslash escaping; newlines are the remaining hazard.
func promEscape(v string) string {
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promFloat renders a float without Go's %v +Inf/NaN spellings.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// jsonSnapshot is the JSON exposition envelope.
type jsonSnapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// MetricsHandler serves the registry over HTTP: Prometheus text by
// default, the structured JSON snapshot with ?format=json (the form
// `pmwcm loadtest` scrapes). Rendering is read-only — scrapes can never
// perturb mechanism state.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch f := req.URL.Query().Get("format"); f {
		case "", "prom", "prometheus":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			r.WritePrometheus(w)
		case "json":
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(jsonSnapshot{Families: r.Snapshot()})
		default:
			http.Error(w, fmt.Sprintf(`{"error": "unknown format %q (have prom, json)"}`, f), http.StatusBadRequest)
		}
	})
}

// VersionInfo describes the running build, read from the binary's
// embedded module and VCS metadata.
type VersionInfo struct {
	// Module is the main module path; Version its module version
	// ("(devel)" for non-tagged local builds).
	Module  string `json:"module"`
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision/BuildTime/Modified carry VCS stamping when the build had
	// it (plain `go build` in a git checkout).
	Revision  string `json:"revision,omitempty"`
	BuildTime string `json:"build_time,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// Version reads the build's identity via runtime/debug.ReadBuildInfo.
func Version() VersionInfo {
	v := VersionInfo{GoVersion: runtime.Version(), Version: "(devel)"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.Module = bi.Main.Path
	if bi.Main.Version != "" {
		v.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			v.Revision = s.Value
		case "vcs.time":
			v.BuildTime = s.Value
		case "vcs.modified":
			v.Modified = s.Value == "true"
		}
	}
	return v
}

// String renders a one-line human-readable version, for CLI output and
// startup logs.
func (v VersionInfo) String() string {
	s := fmt.Sprintf("%s %s (%s)", v.Module, v.Version, v.GoVersion)
	if v.Revision != "" {
		rev := v.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		s += " rev " + rev
		if v.Modified {
			s += "+dirty"
		}
	}
	return s
}
