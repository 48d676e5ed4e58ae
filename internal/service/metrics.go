package service

// metrics.go instruments the serving subsystem with internal/obs. Two
// mechanisms divide the work:
//
//   - svcMetrics holds hot-path instruments (query dispositions, batch
//     shapes) updated inline with single atomic operations;
//   - Manager.collect emits scrape-time gauges whose cardinality changes
//     at runtime (per-session and per-accountant budget state), reading
//     through the same Status snapshots the status endpoints serve.
//
// The layer-wide invariant: instrumentation is observation only. No
// instrument draws randomness, takes a budget decision, or writes
// mechanism state, so a manager with metrics enabled releases answers,
// ledgers, and transcripts bit-identical to one without (pinned by
// TestObservabilityGolden).

import (
	"time"

	"repro/internal/obs"
)

// svcMetrics are the manager's hot-path instruments. A nil *svcMetrics —
// or one built from a nil registry, whose fields are all nil — makes
// every update a no-op, so the query path instruments unconditionally.
type svcMetrics struct {
	// hits/tops/bottoms partition answered queries by disposition:
	// cache-served, budget-spending ⊤, free ⊥.
	hits, tops, bottoms *obs.Counter
	// gated counts cache lookups that found an entry whose ⊤ spend was
	// not yet durable and had to take the locked write-ahead path.
	gated *obs.Counter
	// batches counts batch requests; batchSize observes their shapes.
	batches   *obs.Counter
	batchSize *obs.Histogram
	// evictions/pageins count residency transitions: sessions folded out
	// of memory and sessions restored back in on touch.
	evictions, pageins *obs.Counter
}

// newSvcMetrics builds the manager's instruments (all nil when reg is).
func newSvcMetrics(reg *obs.Registry) *svcMetrics {
	const qHelp = "Queries answered, by disposition (hit = answer cache, top = budget-spending update, bottom = free sparse-vector answer)."
	return &svcMetrics{
		hits:    reg.Counter("pmwcm_queries_total", qHelp, obs.Labels{"disposition": "hit"}),
		tops:    reg.Counter("pmwcm_queries_total", qHelp, obs.Labels{"disposition": "top"}),
		bottoms: reg.Counter("pmwcm_queries_total", qHelp, obs.Labels{"disposition": "bottom"}),
		gated: reg.Counter("pmwcm_cache_gated_total",
			"Cache lookups that found an entry gated on an in-flight durability checkpoint.", nil),
		batches: reg.Counter("pmwcm_batches_total", "Batch query requests served.", nil),
		batchSize: reg.Histogram("pmwcm_batch_size",
			"Queries per batch request.", obs.SizeBuckets, nil),
		evictions: reg.Counter("pmwcm_session_evictions_total",
			"Sessions evicted from residency (folded into the store, dropped from memory).", nil),
		pageins: reg.Counter("pmwcm_session_pageins_total",
			"Paged-out sessions restored into memory on touch.", nil),
	}
}

// The session query path calls these nil-safe helpers; with metrics
// disabled each is a nil check and nothing else.

func (m *svcMetrics) hit() {
	if m != nil {
		m.hits.Inc()
	}
}

func (m *svcMetrics) top() {
	if m != nil {
		m.tops.Inc()
	}
}

func (m *svcMetrics) bottom() {
	if m != nil {
		m.bottoms.Inc()
	}
}

func (m *svcMetrics) gate() {
	if m != nil {
		m.gated.Inc()
	}
}

func (m *svcMetrics) batch(size int) {
	if m != nil {
		m.batches.Inc()
		m.batchSize.Observe(float64(size))
	}
}

func (m *svcMetrics) evicted() {
	if m != nil {
		m.evictions.Inc()
	}
}

func (m *svcMetrics) pagedIn() {
	if m != nil {
		m.pageins.Inc()
	}
}

// Metrics returns the registry the manager was configured with (nil when
// observability is off).
func (m *Manager) Metrics() *obs.Registry { return m.cfg.Metrics }

// Started returns the manager's construction time, the anchor for the
// healthz uptime report.
func (m *Manager) Started() time.Time { return m.started }

// StateDir returns the durable store's location — a state directory path
// or a remote store URL ("" when the manager is memory-only).
func (m *Manager) StateDir() string {
	if m.cfg.Store == nil {
		return ""
	}
	return m.cfg.Store.Location()
}

// SessionAccountant resolves a session id to its accountant name for log
// enrichment. It reads only immutable creation parameters of *resident*
// sessions — deliberately not through Manager.Session, which would page
// an evicted session back in just to label a log line.
func (m *Manager) SessionAccountant(id string) (string, bool) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return "", false
	}
	return s.params.Accountant, true
}

// collect is the manager's scrape-time collector: session counts, uptime,
// and per-session / per-accountant budget gauges. It reads session state
// through Statuses — the same read path the status endpoints use — so a
// scrape can never perturb mechanism state.
func (m *Manager) collect(emit func(obs.Sample)) {
	m.mu.Lock()
	open, retained := m.open, len(m.closedIDs)
	resident, paged := m.residentLive, len(m.pagedOut)
	m.mu.Unlock()
	emit(obs.Sample{Name: "pmwcm_sessions_open",
		Help: "Currently open sessions.", Value: float64(open)})
	emit(obs.Sample{Name: "pmwcm_sessions_retained_closed",
		Help: "Closed sessions retained for status/transcript reads.", Value: float64(retained)})
	emit(obs.Sample{Name: "pmwcm_sessions_resident",
		Help: "Live sessions currently holding memory.", Value: float64(resident)})
	emit(obs.Sample{Name: "pmwcm_sessions_paged_out",
		Help: "Open sessions evicted to the store, paged in on next touch.", Value: float64(paged)})
	emit(obs.Sample{Name: "pmwcm_uptime_seconds",
		Help: "Seconds since the manager was constructed.", Value: time.Since(m.started).Seconds()})

	// Per-accountant aggregates accumulate across sessions; per-session
	// gauges expose each ledger directly (cardinality is bounded by the
	// session retention limits).
	type acctAgg struct {
		sessions                       int
		epsSpent, deltaSpent, epsRem   float64
		updatesUsed, queriesUsed, hits int
	}
	aggs := map[string]*acctAgg{}
	const (
		sessHelp = "Per-session privacy ledger gauges."
		acctHelp = "Per-accountant aggregates over live and retained sessions."
	)
	for _, st := range m.Statuses() {
		labels := obs.Labels{"session": st.ID, "accountant": st.Accountant}
		emit(obs.Sample{Name: "pmwcm_session_eps_spent", Help: sessHelp, Labels: labels, Value: st.EpsSpent})
		emit(obs.Sample{Name: "pmwcm_session_eps_remaining", Help: sessHelp, Labels: labels, Value: st.EpsRemaining})
		emit(obs.Sample{Name: "pmwcm_session_queries_used", Help: sessHelp, Labels: labels, Value: float64(st.QueriesUsed)})
		emit(obs.Sample{Name: "pmwcm_session_cache_hits", Help: sessHelp, Labels: labels, Value: float64(st.CacheHits)})
		a := aggs[st.Accountant]
		if a == nil {
			a = &acctAgg{}
			aggs[st.Accountant] = a
		}
		a.sessions++
		a.epsSpent += st.EpsSpent
		a.deltaSpent += st.DeltaSpent
		a.epsRem += st.EpsRemaining
		a.updatesUsed += st.UpdatesUsed
		a.queriesUsed += st.QueriesUsed
		a.hits += int(st.CacheHits)
	}
	for name, a := range aggs {
		labels := obs.Labels{"accountant": name}
		emit(obs.Sample{Name: "pmwcm_accountant_sessions", Help: acctHelp, Labels: labels, Value: float64(a.sessions)})
		emit(obs.Sample{Name: "pmwcm_accountant_eps_spent", Help: acctHelp, Labels: labels, Value: a.epsSpent})
		emit(obs.Sample{Name: "pmwcm_accountant_delta_spent", Help: acctHelp, Labels: labels, Value: a.deltaSpent})
		emit(obs.Sample{Name: "pmwcm_accountant_eps_remaining", Help: acctHelp, Labels: labels, Value: a.epsRem})
		emit(obs.Sample{Name: "pmwcm_accountant_updates_used", Help: acctHelp, Labels: labels, Value: float64(a.updatesUsed)})
		emit(obs.Sample{Name: "pmwcm_accountant_queries_used", Help: acctHelp, Labels: labels, Value: float64(a.queriesUsed)})
		emit(obs.Sample{Name: "pmwcm_accountant_cache_hits", Help: acctHelp, Labels: labels, Value: float64(a.hits)})
	}
}
