// Package service hosts the paper's interactive protocol as a long-running,
// concurrent query-serving subsystem.
//
// The mechanism of the paper is inherently online: an analyst adaptively
// submits convex-minimization queries against long-lived private state
// (Figure 1's accuracy game), yet a core.Server is a single sequential
// interaction. This package adds the operational layer between the two: a
// Manager owns the private dataset and hosts many concurrent analyst
// sessions, each wrapping one core.Server behind its own mutex with a
// privacy-budget ledger, a query counter, and a transcript recorder.
// Sessions expose create / query / status / transcript / close operations;
// queries name losses from the internal/convex registry (kind + JSON
// parameters), so a session is drivable entirely from serialized data — the
// HTTP front end in httpapi.go is a thin JSON codec over this API.
//
// Budget semantics: a session is created with an (ε, δ) budget, an accuracy
// target α, and a query cap K. Every answer consumes from the ledger the
// way Figure 3 prescribes — ⊥ answers are free beyond the up-front
// sparse-vector slice, ⊤ answers spend one oracle call — and once the K-th
// query is answered (or the mechanism's T update budget is exhausted) the
// session rejects further queries with ErrBudgetExhausted. Closing a
// session or shutting the manager down is permanent; closed sessions keep
// serving status and transcript reads so audits survive the session.
//
// The read path exploits that a released answer is public information:
// each session caches every answer under its query's canonical spec key
// (convex.CanonicalKey), and a repeat of the same canonical query is
// re-released from the cache as pure post-processing — zero budget, no
// noise-stream movement, no transcript growth, no K consumption, lock-free
// with respect to the session mutex, and still working after the budget is
// exhausted. Session.QueryBatch (and the queries:batch endpoint) answers
// many specs per round trip: cache hits resolve read-only and concurrently,
// misses run in deterministic submission order with one write-ahead
// checkpoint per batch, and the result is answer-, budget-, and
// transcript-equivalent to sequential Query calls.
//
// How spends compose is per-session: SessionParams.Accountant names a
// strategy from mech.AccountantNames ("advanced" DRV10 by default;
// "zcdp" composes Gaussian-noise oracle calls in ρ and sustains a larger
// update horizon from the same budget). Status reports the mode, the
// composed spend so far, and the remaining budget.
//
// Durability is opt-in via Config.Store (internal/persist): sessions then
// append every event to a per-session write-ahead log, making each ⊤
// answer's record durable before the answer is released, and snapshot
// their complete state — mechanism snapshot, privacy ledger, transcript —
// on creation, forced Checkpoint calls, log compaction, close, eviction,
// and graceful shutdown. A manager constructed over the same store and
// dataset recovers every stored session by snapshot plus log replay: live
// ones continue the interaction bit-identically to an uninterrupted run,
// closed ones remain readable for audits.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/convex"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/erm"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/sample"
	"repro/internal/transcript"
	"repro/internal/universe"
	"repro/internal/xeval"
)

// Typed failures the API distinguishes. Callers match with errors.Is.
var (
	// ErrSessionNotFound: the session id is unknown.
	ErrSessionNotFound = errors.New("service: session not found")
	// ErrSessionClosed: the session exists but was closed.
	ErrSessionClosed = errors.New("service: session closed")
	// ErrBudgetExhausted: the session's K queries or T updates are spent.
	ErrBudgetExhausted = errors.New("service: session budget exhausted")
	// ErrTooManySessions: the manager's open-session limit is reached.
	ErrTooManySessions = errors.New("service: session limit reached")
	// ErrSessionExists: a caller-chosen session id collides with a live,
	// paged-out, or retained-closed session.
	ErrSessionExists = errors.New("service: session already exists")
	// ErrShuttingDown: the manager has been shut down.
	ErrShuttingDown = errors.New("service: manager is shut down")
	// ErrNotDurable: a snapshot was requested but the manager has no state
	// directory.
	ErrNotDurable = errors.New("service: manager has no state directory")
	// ErrCheckpoint: writing a session's durable state failed. On a ⊤
	// answer the reply becomes this error while the in-memory ledger and
	// transcript keep the spend (and the computed answer, which remains
	// readable via the transcript endpoint), so budget is never spent
	// without being counted.
	ErrCheckpoint = errors.New("service: session checkpoint failed")
)

// SessionParams are the per-session mechanism parameters. Zero fields take
// the manager's defaults at creation time.
type SessionParams struct {
	// ID optionally pins the session's identifier instead of taking a
	// manager-issued sequential one. The routing front door uses this to
	// place a session on the replica its id hashes to before the session
	// exists. Ids share the store's naming rules (persist.ValidateID); a
	// collision with any known session fails with ErrSessionExists.
	ID string `json:"id,omitempty"`
	// Eps, Delta is the session's total privacy budget.
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// Alpha is the excess-risk accuracy target, Beta the failure
	// probability.
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	// K caps the number of queries the session will answer.
	K int `json:"k,omitempty"`
	// TBudget is the MW update horizon (see core.Config.TBudget).
	TBudget int `json:"tbudget,omitempty"`
	// S is the loss-family scale bound the session enforces.
	S float64 `json:"s,omitempty"`
	// Deprecated: ignored, and never read from or written to JSON, so a
	// create that sends "workers" is a 400. Every session runs on
	// min(GOMAXPROCS, chunks) xeval workers. pmwbench still sets this
	// field on its defaults; the benchmark change of ROADMAP item 11
	// removes that setter, and the field is deleted after it.
	Workers int `json:"-"`
	// Accountant names the session's privacy-accounting strategy, one of
	// mech.AccountantNames ("basic", "advanced", "zcdp"; empty = the
	// manager's default, itself defaulting to "advanced"). This is a
	// semantic dial: "zcdp" composes Gaussian-noise oracle calls more
	// tightly and sustains a larger update horizon at the same (ε, δ, α).
	// Unknown names are rejected with HTTP 400.
	Accountant string `json:"accountant,omitempty"`
}

// merged fills zero fields from defaults.
func (p SessionParams) merged(def SessionParams) SessionParams {
	if p.Eps == 0 {
		p.Eps = def.Eps
	}
	if p.Delta == 0 {
		p.Delta = def.Delta
	}
	if p.Alpha == 0 {
		p.Alpha = def.Alpha
	}
	if p.Beta == 0 {
		p.Beta = def.Beta
	}
	if p.K == 0 {
		p.K = def.K
	}
	if p.TBudget == 0 {
		p.TBudget = def.TBudget
	}
	if p.S == 0 {
		p.S = def.S
	}
	if p.Accountant == "" {
		p.Accountant = def.Accountant
	}
	return p
}

// Limits bound the manager's resource usage.
type Limits struct {
	// MaxSessions caps concurrently open sessions (default 64).
	MaxSessions int
	// MaxK caps any single session's query budget (default 100000).
	MaxK int
	// RetainClosed caps how many closed sessions stay addressable for
	// status/transcript reads (default 128). Beyond the cap the oldest
	// closed sessions are evicted, bounding memory on create/close churn.
	RetainClosed int
}

// DefaultSessionParams is the fallback configuration applied to fields the
// caller leaves zero: a (1, 1e-6) budget, α = 0.05, K = 100 queries over a
// 12-update horizon with the S = 2 scale the unit-ball GLM losses certify,
// composed under the paper's "advanced" (DRV10) accountant.
func DefaultSessionParams() SessionParams {
	return SessionParams{
		Eps: 1, Delta: 1e-6,
		Alpha: 0.05, Beta: 0.05,
		K: 100, TBudget: 12, S: 2,
		Accountant: mech.DefaultAccountant,
	}
}

// Config parameterizes a Manager.
type Config struct {
	// Data is the private dataset every session queries.
	Data *dataset.Dataset
	// Source seeds all session randomness (split per session).
	Source *sample.Source
	// Oracle is the single-query algorithm A′ (default erm.NoisyGD{}).
	Oracle erm.Oracle
	// Defaults fill zero fields of per-session parameters
	// (DefaultSessionParams when a field here is itself zero).
	Defaults SessionParams
	// Limits bound resource usage.
	Limits Limits
	// Store makes the manager durable and New recovers every stored
	// session — live ones resume mid-interaction bit-identically, closed
	// ones stay readable for audits. Nil serves from memory only. The
	// store's manifest pins a fingerprint of Data; opening old state over
	// a different dataset fails. Any persist.Backend works: a
	// persist.Store over a state directory or over a `pmwcm store` blob
	// namespace (persist.OpenRemote). Either way each event appends one small record to the
	// session's write-ahead log, each ⊤ commit syncs that session's log,
	// and the log periodically compacts into the snapshot format (after
	// CompactEvery records or 1 MiB).
	Store persist.Backend
	// Deprecated: ignored; every durable manager writes through its WAL.
	WAL bool
	// CompactEvery folds a session's WAL into its snapshot after this many
	// records (0 = 256), bounding replay length at recovery.
	CompactEvery int
	// MaxResident (requires Store) caps how many live sessions hold
	// memory at once: past the cap the least-recently-touched sessions
	// are evicted — folded into their durable snapshots and dropped from
	// memory — and paged back in through the recovery path on their next
	// touch. 0 disables eviction (every open session stays resident).
	MaxResident int
	// IdleTTL (requires Store) evicts live sessions untouched for this
	// long, independent of MaxResident. 0 disables the idle sweep.
	IdleTTL time.Duration
	// Metrics enables observability: the manager records query
	// dispositions and batch shapes into the registry and registers a
	// scrape-time collector for session counts and per-session /
	// per-accountant budget gauges. Nil disables instrumentation at zero
	// cost. Metrics are observation only — enabling them leaves answers,
	// ledgers, and transcripts bit-identical.
	Metrics *obs.Registry
}

// Manager hosts concurrent analyst sessions over one private dataset. All
// methods are safe for concurrent use.
type Manager struct {
	cfg Config
	// fp is the dataset fingerprint, computed once at construction (only
	// when durable): it is a constant of the manager's lifetime and goes
	// into every manifest write.
	fp persist.DatasetInfo
	// met holds the hot-path instruments (all-nil no-ops when metrics are
	// disabled); started anchors the uptime report.
	met     *svcMetrics
	started time.Time

	mu        sync.Mutex
	seq       uint64
	sessions  map[string]*Session
	closedIDs []string // closed sessions in close order, for eviction
	open      int
	shutdown  bool

	// Residency state (see evict.go). sessions holds only *resident*
	// sessions; pagedOut marks open sessions that live solely in the
	// store; paging gates ids with an eviction or page-in in flight;
	// residentLive counts live (non-closed) resident sessions — the
	// number MaxResident bounds.
	pagedOut     map[string]bool
	paging       map[string]chan struct{}
	residentLive int
	janitorStop  chan struct{}
}

// New validates cfg and constructs an empty Manager.
func New(cfg Config) (*Manager, error) {
	if cfg.Data == nil || cfg.Data.N() == 0 {
		return nil, fmt.Errorf("service: empty dataset")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("service: nil random source")
	}
	cfg.Defaults = cfg.Defaults.merged(DefaultSessionParams())
	if cfg.Oracle == nil {
		cfg.Oracle = erm.NoisyGD{Engine: xeval.New(0)}
	}
	if cfg.Limits.MaxSessions <= 0 {
		cfg.Limits.MaxSessions = 64
	}
	if cfg.Limits.MaxK <= 0 {
		cfg.Limits.MaxK = 100000
	}
	if cfg.Limits.RetainClosed <= 0 {
		cfg.Limits.RetainClosed = 128
	}
	if (cfg.MaxResident > 0 || cfg.IdleTTL > 0) && cfg.Store == nil {
		return nil, fmt.Errorf("service: session eviction requires a durable store (Config.Store)")
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 256
	}
	m := &Manager{
		cfg:      cfg,
		met:      newSvcMetrics(cfg.Metrics),
		started:  time.Now(),
		sessions: map[string]*Session{},
		pagedOut: map[string]bool{},
		paging:   map[string]chan struct{}{},
	}
	if cfg.Store != nil {
		cfg.Store.Instrument(cfg.Metrics)
		if err := m.recover(); err != nil {
			return nil, err
		}
		// Recovery may have restored more live sessions than the residency
		// cap allows (log tails restore eagerly); sweep down to the cap.
		m.enforceResident("")
	}
	if cfg.IdleTTL > 0 {
		m.janitorStop = make(chan struct{})
		go m.janitor()
	}
	if cfg.Metrics != nil {
		cfg.Metrics.RegisterCollector(m.collect)
	}
	return m, nil
}

// coreConfig maps fully merged session parameters onto the mechanism
// configuration. Creation and recovery both go through it, so a restored
// session is rebuilt from exactly the derivation that created it.
func (m *Manager) coreConfig(p SessionParams) core.Config {
	return core.Config{
		Eps: p.Eps, Delta: p.Delta,
		Alpha: p.Alpha, Beta: p.Beta,
		K: p.K, S: p.S,
		Oracle:     m.cfg.Oracle,
		TBudget:    p.TBudget,
		Accountant: p.Accountant,
	}
}

// recover replays the state directory into the manager: the manifest is
// verified against the dataset fingerprint (or initialized on a fresh
// directory), every stored session is restored — live sessions resume
// mid-interaction, closed ones become readable audit records — and each
// restored ledger is re-verified against its own transcript before the
// session serves again.
func (m *Manager) recover() error {
	m.fp = persist.Fingerprint(m.cfg.Data)
	man, err := m.cfg.Store.LoadManifest()
	if err != nil {
		return err
	}
	if man == nil {
		man = &persist.Manifest{Dataset: m.fp, Source: m.cfg.Source.State()}
		if err := m.cfg.Store.SaveManifest(man); err != nil {
			return err
		}
	} else {
		if man.Dataset != m.fp {
			return fmt.Errorf("service: store %s belongs to a different dataset (manifest %+v, have %+v)",
				m.cfg.Store.Location(), man.Dataset, m.fp)
		}
		// Resume the root noise stream from the recorded position — not
		// from the configured source, which a restart rewinds to its seed.
		// A rewound root would split the same child seeds again and hand a
		// post-restart session a noise stream some pre-restart session
		// already drew from: correlated noise across sessions that no
		// ledger accounts for.
		src, err := sample.FromState(man.Source)
		if err != nil {
			return fmt.Errorf("service: manifest source state: %w", err)
		}
		m.cfg.Source = src
	}
	m.seq = man.Seq

	ids, err := m.cfg.Store.Sessions()
	if err != nil {
		return err
	}
	// First pass: read every state file, bound the closed-session backlog
	// *before* the expensive mechanism restores, and pin seq above every
	// stored id (guarding against a manifest that lagged a create — ids
	// are issued from seq, so seq must dominate them).
	var states []*persist.SessionState
	var closedIDs []string
	for _, id := range ids {
		st, err := m.cfg.Store.LoadSession(id)
		if err != nil {
			return err
		}
		states = append(states, st)
		if st.Closed {
			closedIDs = append(closedIDs, id)
		}
		var n uint64
		if _, err := fmt.Sscanf(id, "s-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
	}
	// Evict the oldest closed sessions beyond the retention cap, deleting
	// their files so the state directory cannot grow without bound under
	// create/close churn. (Close order is lost across restarts; id order —
	// creation order — is the deterministic stand-in.)
	evicted := map[string]bool{}
	for len(closedIDs) > m.cfg.Limits.RetainClosed {
		id := closedIDs[0]
		closedIDs = closedIDs[1:]
		evicted[id] = true
		if err := m.cfg.Store.DeleteSession(id); err != nil {
			return err
		}
		if err := m.cfg.Store.RemoveWAL(id); err != nil {
			return err
		}
	}
	for _, st := range states {
		if evicted[st.ID] {
			continue
		}
		walRecs, err := m.cfg.Store.LoadWAL(st.ID)
		if err != nil {
			return fmt.Errorf("service: recovering session %s: %w", st.ID, err)
		}
		if m.cfg.MaxResident > 0 && !st.Closed && len(walRecs) == 0 {
			// Residency-capped start: a live session whose snapshot is
			// complete (no log tail to fold) recovers lazily — it counts as
			// open but stays paged out, and its (expensive) restore plus
			// ledger re-verification runs at first touch through the very
			// same restore path. Sessions with a log tail restore eagerly
			// so the tail is folded exactly once; the enforceResident sweep
			// after recovery pushes any excess back out.
			m.pagedOut[st.ID] = true
			m.open++
			continue
		}
		s, err := m.restore(st, walRecs)
		if err != nil {
			return fmt.Errorf("service: recovering session %s: %w", st.ID, err)
		}
		m.sessions[st.ID] = s
		if st.Closed {
			m.closedIDs = append(m.closedIDs, st.ID)
		} else {
			m.open++
			m.residentLive++
		}
	}
	return nil
}

// restore is the one restore sequence recovery and page-in share: given
// the session's snapshot and its log (as LoadWAL returned it), restoreOne
// rebuilds and verifies the session, a non-empty log is folded into a
// fresh snapshot and deleted — so recovery converges instead of replaying
// an ever-longer tail on every restart — and a live session gets its log
// attached.
func (m *Manager) restore(st *persist.SessionState, walRecs []*persist.WALRecord) (*Session, error) {
	s, err := m.restoreOne(st, walRecs)
	if err != nil {
		return nil, err
	}
	if len(walRecs) > 0 {
		// No log is attached yet, so this checkpoint is a plain snapshot.
		if err := s.Checkpoint(); err != nil {
			return nil, fmt.Errorf("compacting replayed log: %w", err)
		}
		if err := m.cfg.Store.RemoveWAL(st.ID); err != nil {
			return nil, fmt.Errorf("compacting replayed log: %w", err)
		}
	}
	if !st.Closed {
		wal, err := m.cfg.Store.OpenWAL(st.ID)
		if err != nil {
			return nil, fmt.Errorf("opening wal: %w", err)
		}
		s.attachWAL(wal, m.cfg.CompactEvery)
	}
	return s, nil
}

// restoreOne rebuilds one session from its durable state: the snapshot,
// then — when a WAL tail survives past it — replay. Replay re-executes
// each logged query spec against the restored mechanism and demands the
// produced event match the recorded one bit for bit; because every event
// (⊥ included) is logged and every answer draws from positional noise
// streams, a matching replay proves the restored RNG positions, ledger,
// and hypothesis are exactly the uninterrupted run's. st is updated in
// place to the post-replay state (events appended, Closed possibly set).
func (m *Manager) restoreOne(st *persist.SessionState, walRecs []*persist.WALRecord) (*Session, error) {
	var p SessionParams
	if err := json.Unmarshal(st.Params, &p); err != nil {
		return nil, fmt.Errorf("decoding session params: %w", err)
	}
	if st.Oracle != m.cfg.Oracle.Name() {
		return nil, fmt.Errorf("session was served by oracle %q, manager runs %q — restored answers would diverge from the original interaction", st.Oracle, m.cfg.Oracle.Name())
	}
	if st.Core == nil || st.Transcript == nil {
		return nil, fmt.Errorf("state file missing core snapshot or transcript")
	}
	srv, err := core.Restore(m.coreConfig(p), m.cfg.Data, st.Core)
	if err != nil {
		return nil, err
	}
	rec := &transcript.Recorder{Srv: srv, T: st.Transcript}
	for _, r := range walRecs {
		switch r.Kind {
		case persist.WALEvent:
			if r.Event == nil || r.Event.Index != r.Seq {
				return nil, fmt.Errorf("wal record %d is malformed", r.Seq)
			}
			if r.Seq <= len(rec.T.Events) {
				// Already inside the snapshot: a crash between a compaction's
				// snapshot write and its log truncation leaves this overlap.
				continue
			}
			if r.Seq != len(rec.T.Events)+1 {
				return nil, fmt.Errorf("wal skips from event %d to %d", len(rec.T.Events), r.Seq)
			}
			var spec convex.Spec
			if err := json.Unmarshal(r.Spec, &spec); err != nil {
				return nil, fmt.Errorf("wal record %d spec: %w", r.Seq, err)
			}
			l, err := convex.Build(m.cfg.Data.U, spec)
			if err != nil {
				return nil, fmt.Errorf("wal record %d spec: %w", r.Seq, err)
			}
			if _, err := rec.AnswerKeyed(l, r.Event.CacheKey); err != nil {
				return nil, fmt.Errorf("replaying wal record %d: %w", r.Seq, err)
			}
			if got := rec.T.Events[len(rec.T.Events)-1]; !eventsEqual(got, *r.Event) {
				return nil, fmt.Errorf("wal replay of event %d diverged from the recorded exchange — state and log disagree", r.Seq)
			}
		case persist.WALClose:
			st.Closed = true
		default:
			return nil, fmt.Errorf("wal record %d has unknown kind %q", r.Seq, r.Kind)
		}
	}
	if err := verifyLedger(p, srv, st.Transcript); err != nil {
		return nil, err
	}
	id := st.ID
	s := newSession(id, p, rec, m.cfg.Data.U, st.Created, st.Oracle, m.cfg.Store, m.met, func() { m.release(id) })
	s.closed.Store(st.Closed)
	return s, nil
}

// eventsEqual compares a replayed event with its recorded WAL twin, bit
// for bit: any drift — answer bytes, disposition, ledger deltas, cache
// key — means the restored state would not continue the uninterrupted
// interaction, and recovery must refuse rather than serve from it.
func eventsEqual(a, b transcript.Event) bool {
	if a.Index != b.Index || a.Query != b.Query || a.Top != b.Top ||
		a.EpsSpent != b.EpsSpent || a.DeltaSpent != b.DeltaSpent || a.RhoSpent != b.RhoSpent ||
		a.CumEps != b.CumEps || a.CumDelta != b.CumDelta || a.CacheKey != b.CacheKey ||
		len(a.Answer) != len(b.Answer) {
		return false
	}
	for i := range a.Answer {
		if a.Answer[i] != b.Answer[i] {
			return false
		}
	}
	return true
}

// ReplayLedger rebuilds a session's ledger from its transcript alone: a
// fresh accountant of the session's kind and budget, the sparse-vector
// reservation of half the budget, then every recorded ⊤ spend in order.
// Recovery checks a restored ledger against it, and an auditor holding
// only a stored transcript reads the session's budget bounds from it.
func ReplayLedger(p SessionParams, t *transcript.Transcript) (mech.Accountant, error) {
	acct, err := mech.NewAccountant(p.Accountant, mech.Params{Eps: p.Eps, Delta: p.Delta})
	if err != nil {
		return nil, err
	}
	if err := acct.Reserve(mech.Params{Eps: p.Eps / 2, Delta: p.Delta / 2}); err != nil {
		return nil, err
	}
	for _, ev := range t.Events {
		if !ev.Top {
			continue
		}
		if err := acct.Spend(mech.Cost{Eps: ev.EpsSpent, Delta: ev.DeltaSpent, Rho: ev.RhoSpent}); err != nil {
			return nil, fmt.Errorf("replaying transcript spend %d: %w", ev.Index, err)
		}
	}
	return acct, nil
}

// verifyLedger re-verifies a restored accountant against the replayed
// transcript: the ReplayLedger accountant must land on exactly the
// restored ledger's composed bound and remaining budget. This catches a
// state file whose ledger and transcript disagree — tampering or a
// partial write that slipped past the envelope — before the session
// spends any further budget on top of it.
func verifyLedger(p SessionParams, srv *core.Server, t *transcript.Transcript) error {
	if srv.Answered() != len(t.Events) {
		return fmt.Errorf("ledger records %d answered queries but transcript has %d events", srv.Answered(), len(t.Events))
	}
	fresh, err := ReplayLedger(p, t)
	if err != nil {
		return err
	}
	if tops := t.Tops(); srv.Updates() != tops {
		return fmt.Errorf("ledger records %d updates but transcript shows %d ⊤ answers", srv.Updates(), tops)
	}
	if fresh.Total() != srv.Privacy() || fresh.Remaining() != srv.Remaining() {
		return fmt.Errorf("restored ledger (total %+v, remaining %+v) does not match transcript replay (total %+v, remaining %+v)",
			srv.Privacy(), srv.Remaining(), fresh.Total(), fresh.Remaining())
	}
	return nil
}

// Durable reports whether the manager checkpoints sessions to a state
// directory.
func (m *Manager) Durable() bool { return m.cfg.Store != nil }

// Universe returns the public data universe sessions answer over.
func (m *Manager) Universe() universe.Universe { return m.cfg.Data.U }

// Defaults returns the fully merged default session parameters.
func (m *Manager) Defaults() SessionParams { return m.cfg.Defaults }

// CreateSession opens a new session; zero fields of req take the manager's
// defaults. It fails with ErrTooManySessions at the open-session limit,
// ErrSessionExists when req.ID names a session the manager already knows,
// and ErrShuttingDown after Shutdown.
func (m *Manager) CreateSession(req SessionParams) (*Session, error) {
	p := req.merged(m.cfg.Defaults)
	if p.K > m.cfg.Limits.MaxK {
		return nil, fmt.Errorf("service: session K = %d exceeds limit %d", p.K, m.cfg.Limits.MaxK)
	}
	if p.ID != "" {
		if err := persist.ValidateID(p.ID); err != nil {
			return nil, fmt.Errorf("service: session id %q: %w", p.ID, err)
		}
	}

	m.mu.Lock()
	if m.shutdown {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if m.open >= m.cfg.Limits.MaxSessions {
		m.mu.Unlock()
		return nil, ErrTooManySessions
	}
	id := p.ID
	if id == "" {
		// Manager-issued ids come off the manifest-pinned sequence; pinned
		// ids never advance it (recovery re-derives seq only from "s-%d"
		// names, so foreign names cannot collide with issued ones).
		m.seq++
		id = fmt.Sprintf("s-%06d", m.seq)
	} else if _, dup := m.sessions[id]; dup || m.pagedOut[id] || m.paging[id] != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrSessionExists, id)
	}
	seq := m.seq
	src := m.cfg.Source.Split()
	// Persist the issued sequence number and the advanced root-stream
	// position before the session exists, still under the lock (concurrent
	// creates must not reorder manifest writes): a crash here at worst
	// skips an id and a child seed, never reuses either.
	if m.cfg.Store != nil {
		if err := m.cfg.Store.SaveManifest(&persist.Manifest{Seq: seq, Dataset: m.fp, Source: m.cfg.Source.State()}); err != nil {
			m.mu.Unlock()
			return nil, err
		}
	}
	// Reserve the slot before the (comparatively slow) server construction
	// so the limit holds under concurrent creates.
	m.open++
	m.mu.Unlock()

	undo := func() {
		m.mu.Lock()
		m.open--
		m.mu.Unlock()
	}

	srv, err := core.New(m.coreConfig(p), m.cfg.Data, src)
	if err != nil {
		undo()
		return nil, err
	}

	rec := transcript.NewRecorder(srv)
	rec.T.Meta["eps"] = p.Eps
	rec.T.Meta["delta"] = p.Delta
	rec.T.Meta["alpha"] = p.Alpha
	rec.T.Meta["k"] = float64(p.K)
	s := newSession(id, p, rec, m.cfg.Data.U, time.Now(), m.cfg.Oracle.Name(), m.cfg.Store, m.met, func() { m.release(id) })
	if m.cfg.Store != nil {
		// The creation checkpoint makes the session durable from its first
		// moment: the split noise stream and the already-drawn
		// sparse-vector threshold are stored before any query is answered.
		// The log is attached after it, so it only ever holds events past a
		// snapshot that exists.
		if err := s.Checkpoint(); err != nil {
			undo()
			return nil, err
		}
		wal, err := m.cfg.Store.OpenWAL(id)
		if err != nil {
			undo()
			_ = m.cfg.Store.DeleteSession(id)
			return nil, err
		}
		s.attachWAL(wal, m.cfg.CompactEvery)
	}
	m.mu.Lock()
	if m.shutdown {
		m.open--
		m.mu.Unlock()
		if m.cfg.Store != nil {
			_ = m.cfg.Store.DeleteSession(id)
			_ = m.cfg.Store.RemoveWAL(id)
		}
		return nil, ErrShuttingDown
	}
	m.sessions[id] = s
	m.residentLive++
	m.mu.Unlock()
	m.enforceResident(id)
	return s, nil
}

// Session returns the session with the given id (open or closed), paging
// a paged-out session back into memory first. The returned handle is the
// session's *current* resident incarnation; an eviction racing the caller
// invalidates it with ErrPagedOut, which the manager-level operation
// wrappers (Query, QueryBatch, …) absorb by retrying through a fresh
// page-in.
func (m *Manager) Session(id string) (*Session, error) {
	for {
		m.mu.Lock()
		if s, ok := m.sessions[id]; ok {
			m.mu.Unlock()
			s.touch()
			return s, nil
		}
		if gate, ok := m.paging[id]; ok {
			// An eviction or another caller's page-in is in flight; wait for
			// it to settle and re-resolve.
			m.mu.Unlock()
			<-gate
			continue
		}
		if !m.pagedOut[id] {
			m.mu.Unlock()
			return nil, ErrSessionNotFound
		}
		if m.shutdown {
			// Paged-out sessions are already suspended on disk exactly as
			// Shutdown leaves resident ones; do not revive them.
			m.mu.Unlock()
			return nil, ErrShuttingDown
		}
		gate := make(chan struct{})
		m.paging[id] = gate
		m.mu.Unlock()

		s, err := m.pageIn(id)
		m.mu.Lock()
		if err == nil {
			m.sessions[id] = s
			delete(m.pagedOut, id)
			m.residentLive++
			m.met.pagedIn()
		}
		delete(m.paging, id)
		m.mu.Unlock()
		close(gate)
		if err != nil {
			return nil, fmt.Errorf("service: paging in session %s: %w", id, err)
		}
		s.touch()
		m.enforceResident(id)
		return s, nil
	}
}

// CloseSession closes the identified session, freeing its slot. Closing an
// already-closed session returns ErrSessionClosed.
func (m *Manager) CloseSession(id string) error {
	return m.withSession(id, func(s *Session) error { return s.Close() })
}

// release frees a closed session's slot and bounds the closed-session
// backlog, deleting evicted sessions' state files so the directory cannot
// grow without bound. It runs exactly once per session, from Session.Close
// or suspend.
func (m *Manager) release(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.open--
	// The closing session was necessarily resident and live (Close on a
	// paged-out incarnation fails with ErrPagedOut before getting here).
	m.residentLive--
	if m.shutdown {
		// Suspending sessions at shutdown must not enter the closed-backlog
		// eviction below: suspended sessions are live on disk, and evicting
		// them here would delete state the next start needs. Recovery
		// re-applies the retention bound to genuinely closed sessions.
		return
	}
	m.closedIDs = append(m.closedIDs, id)
	for len(m.closedIDs) > m.cfg.Limits.RetainClosed {
		old := m.closedIDs[0]
		m.closedIDs = m.closedIDs[1:]
		delete(m.sessions, old)
		if m.cfg.Store != nil {
			// Best-effort: a failed unlink is re-attempted by the next
			// restart's recovery eviction. Close already removed the WAL, but
			// a Close whose final compaction failed leaves one behind.
			_ = m.cfg.Store.DeleteSession(old)
			_ = m.cfg.Store.RemoveWAL(old)
		}
	}
}

// Statuses returns a snapshot of every *resident* session's status,
// ordered by id. Paged-out sessions are deliberately excluded — listing
// them would page every evicted session back in, defeating the residency
// bound; their ids stay addressable through GET /v1/sessions/{id}.
func (m *Manager) Statuses() []SessionStatus {
	m.mu.Lock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sessions := make([]*Session, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		sessions = append(sessions, m.sessions[id])
	}
	m.mu.Unlock()
	out := make([]SessionStatus, len(sessions))
	for i, s := range sessions {
		out[i] = s.Status()
	}
	return out
}

// OpenSessions returns the number of currently open sessions.
func (m *Manager) OpenSessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.open
}

// Shutdown stops every open session and rejects all further creates and
// queries. It is idempotent; status and transcript reads keep working so
// in-flight audits can complete. On a durable manager this is a *suspend*,
// not a close: each live session is checkpointed with its closed flag
// unset, so a new manager over the same state directory resumes every one
// of them mid-interaction — the graceful-restart path of `pmwcm serve`.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	if m.shutdown {
		m.mu.Unlock()
		return
	}
	m.shutdown = true
	if m.janitorStop != nil {
		close(m.janitorStop)
	}
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		// suspend releases each open session's slot and checkpoints live
		// state without persisting a close; already-closed sessions are
		// left as they are.
		s.suspend()
	}
}

// OracleByName maps a CLI/config oracle name to an erm.Oracle running its
// universe-sized computations on min(GOMAXPROCS, chunks) xeval workers.
// The empty name selects NoisyGD, the generic Lipschitz oracle.
//
// Deprecated: the second argument is ignored. pmwbench still passes a
// worker count; the benchmark change of ROADMAP item 11 removes that
// argument at its call sites, and the parameter is deleted after it.
func OracleByName(name string, _ int) (erm.Oracle, error) {
	eng := xeval.New(0)
	switch name {
	case "", "noisygd":
		return erm.NoisyGD{Engine: eng}, nil
	case "netexp":
		return erm.NetExpMech{Engine: eng}, nil
	case "outputperturb":
		return erm.OutputPerturbation{Engine: eng}, nil
	case "glmreduce":
		return erm.GLMReduction{Engine: eng}, nil
	case "laplace-linear":
		return erm.LaplaceLinear{}, nil
	default:
		return nil, fmt.Errorf("service: unknown oracle %q (have noisygd, netexp, outputperturb, glmreduce, laplace-linear)", name)
	}
}
