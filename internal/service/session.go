package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/convex"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/transcript"
	"repro/internal/universe"
)

// Session is one analyst's interactive run of the mechanism: a core.Server
// plus the ledger and transcript around it. A core.Server is inherently
// sequential, so every operation that drives it serializes on the
// session's mutex; distinct sessions never contend.
//
// The read path around the mechanism is concurrent. Every released answer
// enters the session's answer cache, keyed by the query's canonical spec
// (convex.CanonicalKey); a repeat of the same canonical query is answered
// from the cache — pure post-processing of already-released information,
// spending zero budget, advancing no noise stream, and (once the entry's
// spend is durable) never taking the session mutex, so cache hits proceed
// even while a miss holds the mechanism. On a durable manager a ⊤
// answer's entry is gated until its write-ahead checkpoint lands
// (cacheEntry.gateSeq), so the cache can never leak an answer whose spend
// is not yet on disk. The cache is rebuilt from the transcript on
// restore, so the zero-spend property survives snapshot/restart.
//
// When the manager is durable (Config.Store), every event is appended to
// the session's write-ahead log, and every ⊤ answer's record is made
// durable before the answer reaches the analyst (so a crash can lose a
// ⊥-only tail but never a recorded budget spend). The complete state —
// mechanism snapshot, ledger, transcript — is written as a snapshot on
// creation, on Checkpoint, when the log grows past its compaction
// thresholds, and when the session stops writing (close, eviction,
// suspend). Durable writes run under a separate save mutex, so status,
// transcript, and cache reads never block on fsync, and a snapshot is
// assembled inside that mutex, so it can never be overtaken by an older
// one.
type Session struct {
	id      string
	params  SessionParams
	u       universe.Universe
	created time.Time
	oracle  string
	store   persist.Backend // nil when the manager is memory-only
	// met are the manager's shared hot-path instruments (all-nil no-ops
	// when metrics are disabled); cacheHits is this session's lifetime
	// cache-served answer count, reported in SessionStatus.
	met       *svcMetrics
	cacheHits atomic.Int64

	// onClose releases the session's manager slot; invoked exactly once,
	// outside the state mutex, when the session closes.
	onClose func()

	mu  sync.Mutex
	rec *transcript.Recorder

	// closed flips once, under mu; it is atomic so the lock-free cache-hit
	// path can observe it without waiting on an in-flight miss.
	closed atomic.Bool

	// pagedOut flips once, under mu, when the manager evicts the session
	// from residency (evict); every subsequent operation on this object
	// fails with ErrPagedOut, which the manager-level wrappers translate
	// into a page-in plus retry. Unlike closed it is not permanent for the
	// *session* — only for this in-memory incarnation of it.
	pagedOut atomic.Bool

	// lastTouch is the unix-nano time of the last manager-level access,
	// the LRU clock idle eviction and -max-resident victim selection read.
	lastTouch atomic.Int64

	// view is the lock-free ledger snapshot served with cache-hit answers,
	// republished under mu after every state change.
	view atomic.Pointer[ledgerView]

	// cache is the answer cache: canonical spec key → released answer.
	// Entries are immutable once inserted; the first answer for a key wins
	// (later identical queries never reach the mechanism).
	cache struct {
		sync.RWMutex
		m map[string]*cacheEntry
	}

	// saveMu serializes durable writes outside mu. savedSeq (guarded by
	// saveMu) is the transcript length of the newest *durable* state —
	// snapshot, or snapshot plus synced WAL records: query-path commits
	// are skipped when a newer superset is already durable, which keeps
	// the write-ahead guarantee while letting an overtaken writer return
	// immediately. durableSeq mirrors savedSeq atomically for the
	// lock-free cache-hit path: a ⊤ answer's cache entry is only served
	// once its spend is durable (see servable).
	saveMu     sync.Mutex
	savedSeq   int
	durableSeq atomic.Int64

	// The write-ahead log (attachWAL; nil on a memory-only manager, on a
	// closed session, and once eviction or suspend retired it): every
	// event appends one record, ⊤ records are made durable by syncing the
	// log, and the log is periodically compacted back into the snapshot
	// format. walPending (guarded by mu) queues records in event order
	// between drains; wal, walAppendedSeq, and walBroken are guarded by
	// saveMu. walAppendedSeq is the highest event seq written (not
	// necessarily synced) to the log; walBroken flips after a failed
	// append or sync — the log may end mid-frame, so further appends are
	// forbidden and durable points fall back to full snapshots until a
	// compaction's Reset heals the log.
	compactRecords int
	walPending     []*persist.WALRecord
	wal            *persist.WAL
	walAppendedSeq int
	walBroken      bool
}

// cacheEntry is one released answer, immutable once cached. gateSeq is 0
// for answers that may be re-released unconditionally (⊥ answers, which
// spend nothing; entries rebuilt from an on-disk transcript; everything on
// a memory-only manager) and the transcript seq of the entry's ⊤ event
// otherwise: the entry is served only once the durable watermark covers
// that seq, so the write-ahead rule — spend on disk before the answer is
// released — holds on the cache path too.
type cacheEntry struct {
	loss    string
	answer  []float64
	gateSeq int
}

// servable reports whether a cache entry may be released right now.
func (s *Session) servable(e *cacheEntry) bool {
	return e.gateSeq == 0 || s.store == nil || s.durableSeq.Load() >= int64(e.gateSeq)
}

// ledgerView is the point-in-time ledger snapshot cache hits report
// without taking the session mutex.
type ledgerView struct {
	epsRemaining, deltaRemaining float64
	queriesUsed, updatesUsed     int
	updatesMax                   int
}

// newSession wraps a recorder — fresh, or restored with its transcript —
// in a Session. The answer cache is rebuilt from the transcript's recorded
// cache keys, so a query already answered before a restart stays a
// zero-spend repeat after it.
func newSession(id string, p SessionParams, rec *transcript.Recorder, u universe.Universe, created time.Time, oracle string, store persist.Backend, met *svcMetrics, onClose func()) *Session {
	s := &Session{
		id:      id,
		params:  p,
		u:       u,
		created: created,
		oracle:  oracle,
		store:   store,
		met:     met,
		onClose: onClose,
		rec:     rec,
	}
	s.cache.m = map[string]*cacheEntry{}
	for _, ev := range rec.T.Events {
		if ev.CacheKey == "" {
			continue
		}
		if _, dup := s.cache.m[ev.CacheKey]; dup {
			// First answer wins, exactly as the live insert-on-miss path
			// behaves (a duplicate event can only predate the cache).
			continue
		}
		// gateSeq 0: these events came off the store, so they are durable
		// by construction.
		s.cache.m[ev.CacheKey] = &cacheEntry{loss: ev.Query, answer: ev.Answer}
	}
	s.savedSeq = len(rec.T.Events)
	s.durableSeq.Store(int64(len(rec.T.Events)))
	s.touch()
	s.publishViewLocked()
	return s
}

// touch advances the session's LRU clock.
func (s *Session) touch() { s.lastTouch.Store(time.Now().UnixNano()) }

// publishViewLocked refreshes the lock-free ledger view (called under mu,
// or from a constructor before the session is shared).
func (s *Session) publishViewLocked() {
	srv := s.rec.Srv
	rem := srv.Remaining()
	s.view.Store(&ledgerView{
		epsRemaining:   rem.Eps,
		deltaRemaining: rem.Delta,
		queriesUsed:    srv.Answered(),
		updatesUsed:    srv.Updates(),
		updatesMax:     srv.Params().T,
	})
}

// stateLocked assembles the session's durable state (called under mu).
// The state is encoded after mu is released, so the transcript is copied
// with its event slice clipped: later answers append past the clipped
// length (or into a fresh array), never into what the encoder reads.
func (s *Session) stateLocked() (*persist.SessionState, error) {
	raw, err := json.Marshal(s.params)
	if err != nil {
		return nil, fmt.Errorf("service: encoding session params: %w", err)
	}
	tr := *s.rec.T
	tr.Events = tr.Events[:len(tr.Events):len(tr.Events)]
	return &persist.SessionState{
		ID:         s.id,
		Created:    s.created,
		Closed:     s.closed.Load(),
		Oracle:     s.oracle,
		Params:     raw,
		Core:       s.rec.Srv.Snapshot(),
		Transcript: &tr,
	}, nil
}

// compactBytes is the log size that triggers folding a session's log
// into its snapshot, beside the manager's CompactEvery record count.
const compactBytes = 1 << 20

// attachWAL gives a live session its write-ahead log: wal is its open
// log, and compactRecords the record count that (like compactBytes)
// triggers folding the log into a snapshot. Must be called before the
// session is shared (creation and recovery both do).
func (s *Session) attachWAL(wal *persist.WAL, compactRecords int) {
	s.wal = wal
	s.compactRecords = compactRecords
	s.walAppendedSeq = s.savedSeq
}

// appendPendingLocked drains the pending queue into the log file (no
// sync). Caller holds saveMu. Once the log is broken — a failed append may
// have torn the file mid-frame — nothing more is appended: drained records
// are covered by the full-snapshot fallback the caller must take (they are
// all in the in-memory transcript), and on a crash before that fallback
// the torn tail truncates away only records whose answers were never
// released under the write-ahead rule.
func (s *Session) appendPendingLocked() {
	s.mu.Lock()
	pend := s.walPending
	s.walPending = nil
	s.mu.Unlock()
	if s.walBroken || s.wal == nil {
		return
	}
	for _, r := range pend {
		if err := s.wal.Append(r); err != nil {
			s.walBroken = true
			return
		}
		s.walAppendedSeq = r.Seq
	}
}

// walCommit makes every event up to seq durable and advances the durable
// watermark. A commit whose seq is already covered returns immediately (an
// overtaking commit or a racing Checkpoint compaction already hardened
// those records — they are never re-appended or re-fsynced). Without a
// healthy log it falls back to a full snapshot, which also tries to heal
// the log.
func (s *Session) walCommit(seq int) error {
	s.saveMu.Lock()
	if seq <= s.savedSeq {
		s.saveMu.Unlock()
		return nil
	}
	s.appendPendingLocked()
	if s.walBroken || s.wal == nil {
		defer s.saveMu.Unlock()
		return s.compactLocked()
	}
	appended, wal := s.walAppendedSeq, s.wal
	// The sync wait happens outside saveMu: holding it would make every
	// ⊥ append (and every other commit) of this session queue behind one
	// fsync or store round trip. Releasing is safe because the appended
	// records are already in the log — WAL.Sync runs one sync of the log
	// at a time, each covering everything appended before it, and a
	// compaction that races the sync may Reset the log, but only after
	// snapshotting a state that contains these very events, which the
	// savedSeq check below picks up.
	s.saveMu.Unlock()
	syncErr := wal.Sync()
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	if syncErr != nil {
		if s.savedSeq >= seq {
			// A racing compaction already hardened everything up to seq in
			// snapshot form; the failed log sync cost nothing.
			return nil
		}
		s.walBroken = true
		return s.compactLocked()
	}
	if appended > s.savedSeq {
		s.savedSeq = appended
		s.durableSeq.Store(int64(appended))
	}
	if s.wal != nil && !s.walBroken &&
		(s.wal.Records() >= s.compactRecords || s.wal.Bytes() >= compactBytes) {
		// Threshold compaction bounds both replay length and log size; its
		// cost — one full snapshot — lands on this commit but is amortized
		// over compactRecords cheap ones. The commit itself already
		// succeeded, so a compaction failure is not this answer's error:
		// the spend is durable in the log.
		_ = s.compactLocked()
	}
	return nil
}

// snapshotLocked writes the session's current state as its snapshot and
// advances the durable watermark. Caller holds saveMu, so no older
// snapshot can land after this one. Pending records are discarded under
// mu *before* the state is assembled — the snapshot is a superset of every
// one of them — so records covered by the snapshot can never also be
// re-appended to the log (the checkpoint-vs-commit race).
func (s *Session) snapshotLocked() (int, error) {
	s.mu.Lock()
	st, err := s.stateLocked()
	seq := len(s.rec.T.Events)
	s.walPending = nil
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := s.store.SaveSession(st); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	if seq > s.savedSeq {
		s.savedSeq = seq
	}
	s.durableSeq.Store(int64(s.savedSeq))
	return seq, nil
}

// compactLocked folds the session's state into the snapshot and truncates
// the log: the periodic durability "rebase" that bounds WAL replay, and
// the forced-checkpoint path. Caller holds saveMu. A snapshot that landed
// advances the watermark even when the log Reset fails; the broken flag
// then keeps routing durable points through snapshots until a later Reset
// heals the log.
func (s *Session) compactLocked() error {
	seq, err := s.snapshotLocked()
	if err != nil || s.wal == nil {
		return err
	}
	if err := s.wal.Reset(); err != nil {
		s.walBroken = true
		return nil
	}
	s.walBroken = false
	s.walAppendedSeq = seq
	return nil
}

// retireLocked folds the session's state into the snapshot and deletes its
// log: this incarnation will not write through it again (close, eviction,
// suspend), and the next one starts from the snapshot alone. Caller holds
// saveMu. On a failed snapshot the log stays attached and on the store,
// still holding every ⊤ it committed. A failed delete is left for the
// next restore, which folds a leftover log.
func (s *Session) retireLocked() error {
	if _, err := s.snapshotLocked(); err != nil {
		return err
	}
	if s.wal != nil {
		_ = s.wal.Close()
		_ = s.store.RemoveWAL(s.id)
		s.wal = nil
	}
	return nil
}

// Checkpoint forces a durable snapshot of the session's current state: a
// compaction, which folds the log into the snapshot and truncates it, so a
// ⊤ answer racing this checkpoint finds its records already durable
// instead of syncing them a second time. It fails with ErrNotDurable when
// the manager has no store. Checkpointing a closed session rewrites its
// (final) state and is harmless.
func (s *Session) Checkpoint() error {
	if s.store == nil {
		return ErrNotDurable
	}
	if s.pagedOut.Load() {
		// The eviction fold that set the flag leaves the session durable by
		// construction; the retrying caller checkpoints the paged-in
		// incarnation instead of racing the fold.
		return ErrPagedOut
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	return s.compactLocked()
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// QueryResult is one answered query plus the ledger movement it caused.
type QueryResult struct {
	// Loss is the resolved instance name of the queried loss.
	Loss string `json:"loss"`
	// Answer is the released parameter vector θ̂ʲ.
	Answer []float64 `json:"answer"`
	// Top reports the sparse-vector disposition: true means ⊤ (an oracle
	// call was spent and the hypothesis updated), false means ⊥ (answered
	// from the public hypothesis, no marginal budget).
	Top bool `json:"top"`
	// EpsSpent, DeltaSpent are this query's incremental oracle spend;
	// RhoSpent its zCDP cost when the oracle certifies one.
	EpsSpent   float64 `json:"eps_spent"`
	DeltaSpent float64 `json:"delta_spent"`
	RhoSpent   float64 `json:"rho_spent,omitempty"`
	// EpsRemaining, DeltaRemaining are the unspent budget after this query
	// under the session's accountant.
	EpsRemaining   float64 `json:"eps_remaining"`
	DeltaRemaining float64 `json:"delta_remaining"`
	// QueriesUsed / QueriesMax and UpdatesUsed / UpdatesMax are the ledger
	// counters after this query.
	QueriesUsed int `json:"queries_used"`
	QueriesMax  int `json:"queries_max"`
	UpdatesUsed int `json:"updates_used"`
	UpdatesMax  int `json:"updates_max"`
	// Cached reports the answer was re-released from the session's answer
	// cache: pure post-processing of an already-released answer, spending
	// zero budget and advancing no noise stream. Cached results report the
	// latest published ledger view; they never count against K.
	Cached bool `json:"cached,omitempty"`
}

// cacheGet reads the answer cache (lock-free with respect to the session
// mutex).
func (s *Session) cacheGet(key string) *cacheEntry {
	s.cache.RLock()
	e := s.cache.m[key]
	s.cache.RUnlock()
	return e
}

// hitResult renders a cached entry as a zero-spend result carrying the
// latest published ledger view. Every cache-served answer funnels
// through here, so it is the single point that counts hits.
func (s *Session) hitResult(e *cacheEntry) *QueryResult {
	s.cacheHits.Add(1)
	s.met.hit()
	v := s.view.Load()
	return &QueryResult{
		Loss:           e.loss,
		Answer:         append([]float64(nil), e.answer...),
		Cached:         true,
		EpsRemaining:   v.epsRemaining,
		DeltaRemaining: v.deltaRemaining,
		QueriesUsed:    v.queriesUsed,
		QueriesMax:     s.params.K,
		UpdatesUsed:    v.updatesUsed,
		UpdatesMax:     v.updatesMax,
	}
}

// lookupCached serves spec's canonical key from the answer cache without
// taking the session mutex. It returns (nil, nil) on a miss — including
// an entry whose ⊤ spend is not durable yet, which must take the locked
// path so the release waits behind the write-ahead save — and
// ErrSessionClosed for any query to a closed session, hit or not.
func (s *Session) lookupCached(key string) (*QueryResult, error) {
	if s.pagedOut.Load() {
		return nil, ErrPagedOut
	}
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	e := s.cacheGet(key)
	if e != nil && !s.servable(e) {
		s.met.gate()
	}
	if e == nil || !s.servable(e) {
		return nil, nil
	}
	return s.hitResult(e), nil
}

// answerLocked drives one mechanism query under mu: answers l, records the
// keyed transcript event, caches the released answer, queues the WAL
// record (durable managers; spec is the query's serialized spec, replayed
// at recovery), and refreshes the ledger view. The caller owns halt/closed
// checks and durability.
func (s *Session) answerLocked(l convex.Loss, key string, spec json.RawMessage) (*QueryResult, error) {
	theta, err := s.rec.AnswerKeyed(l, key)
	if err == core.ErrHalted {
		return nil, ErrBudgetExhausted
	}
	if err != nil {
		return nil, fmt.Errorf("service: query %q: %w", l.Name(), err)
	}
	srv := s.rec.Srv
	ev := s.rec.T.Events[len(s.rec.T.Events)-1]
	if s.store != nil {
		// Every event is logged, ⊥ included: a ⊥ answer advances the
		// sparse-vector noise stream, so replay must re-execute it to keep
		// the restored RNG positions — and with them the bit-identity
		// invariant — exact. Queued under mu, so pending order is event
		// order.
		s.walPending = append(s.walPending, &persist.WALRecord{Kind: persist.WALEvent, Seq: ev.Index, Spec: spec, Event: &ev})
	}
	if key != "" {
		// ⊥ answers spend nothing and are releasable immediately; a ⊤
		// answer's entry is gated on its spend reaching disk.
		gate := 0
		if ev.Top && s.store != nil {
			gate = len(s.rec.T.Events)
		}
		s.cache.Lock()
		if _, dup := s.cache.m[key]; !dup {
			s.cache.m[key] = &cacheEntry{loss: l.Name(), answer: ev.Answer, gateSeq: gate}
		}
		s.cache.Unlock()
	}
	if ev.Top {
		s.met.top()
	} else {
		s.met.bottom()
	}
	s.publishViewLocked()
	rem := srv.Remaining()
	return &QueryResult{
		Loss:           l.Name(),
		Answer:         theta,
		Top:            ev.Top,
		EpsSpent:       ev.EpsSpent,
		DeltaSpent:     ev.DeltaSpent,
		RhoSpent:       ev.RhoSpent,
		EpsRemaining:   rem.Eps,
		DeltaRemaining: rem.Delta,
		QueriesUsed:    srv.Answered(),
		QueriesMax:     s.params.K,
		UpdatesUsed:    srv.Updates(),
		UpdatesMax:     srv.Params().T,
	}, nil
}

// Query resolves spec against the loss registry and answers it. A repeat
// of an already-answered canonical query is served from the answer cache:
// zero budget spend, no noise-stream movement, no session mutex — the
// mechanism never sees it, so cached repeats keep working even after the
// budget is exhausted. First-time queries go through QueryBatch's mechanism
// phase as a one-item pass, so both paths share one implementation of the
// gating and write-ahead rules. Query returns ErrSessionClosed after Close
// and ErrBudgetExhausted once the session's K queries or T updates are
// spent.
func (s *Session) Query(spec convex.Spec) (*QueryResult, error) {
	key, err := convex.CanonicalKey(s.u, spec)
	if err != nil {
		return nil, err
	}
	if res, err := s.lookupCached(key); err != nil || res != nil {
		return res, err
	}
	res, errs := make([]*QueryResult, 1), make([]error, 1)
	if err := s.answerMisses([]convex.Spec{spec}, []string{key}, []int{0}, res, errs); err != nil {
		return nil, err
	}
	return res[0], errs[0]
}

// BatchItem is one entry of a batch response: exactly one of Result and
// Error is set. Error strings match what the equivalent sequential Query
// call would have returned.
type BatchItem struct {
	// Result is the item's answer when it succeeded.
	Result *QueryResult `json:"result,omitempty"`
	// Error is the item's failure, empty on success.
	Error string `json:"error,omitempty"`
}

// QueryBatch answers a batch of queries as one operation. A batch whose
// every item is a servable cache hit is answered read-only, without the
// session mutex. Any other batch runs every item through the mechanism
// phase in submission order, under one session-mutex hold and with one
// write-ahead commit for the whole batch instead of one per ⊤ answer
// (every spend in the batch reaches disk before any of its answers is
// released). There a cached item reports the ledger after the items
// before it, and an in-batch repeat of an earlier miss is served from the
// cache the miss just filled, so a batch is answer-, ledger-, and
// transcript-equivalent to the same specs issued as sequential Query
// calls. Per-item failures (unknown kinds, malformed params, budget
// exhaustion mid-batch) are reported in the item, not as a batch error;
// the returned error is reserved for batch-wide failures (a failed
// checkpoint withholds the whole batch's answers).
func (s *Session) QueryBatch(specs []convex.Spec) ([]BatchItem, error) {
	s.met.batch(len(specs))
	res, errs := make([]*QueryResult, len(specs)), make([]error, len(specs))
	keys := make([]string, len(specs))
	var idx []int
	allHits := true
	for i, spec := range specs {
		key, err := convex.CanonicalKey(s.u, spec)
		if err != nil {
			errs[i] = err
			continue
		}
		keys[i] = key
		idx = append(idx, i)
		// An entry whose spend is not durable yet is not servable here: it
		// must go through the locked phase, whose trailing commit gates its
		// release.
		if e := s.cacheGet(key); e == nil || !s.servable(e) {
			if e != nil {
				s.met.gate()
			}
			allHits = false
		}
	}
	if allHits {
		for _, i := range idx {
			if res[i], errs[i] = s.lookupCached(keys[i]); errors.Is(errs[i], ErrPagedOut) {
				// Eviction raced the batch: fail it as a whole so the manager
				// pages the session back in and retries every item.
				return nil, errs[i]
			}
		}
	} else if err := s.answerMisses(specs, keys, idx, res, errs); err != nil {
		return nil, err
	}
	items := make([]BatchItem, len(specs))
	for i := range items {
		if errs[i] != nil {
			items[i].Error = errs[i].Error()
		} else {
			items[i].Result = res[i]
		}
	}
	return items, nil
}

// answerMisses is the mechanism phase of Query and QueryBatch: the items
// idx names, in submission order, under one mutex hold and one trailing
// write-ahead commit. Items already in the answer cache are served from it
// under the lock, with the ledger view the items before them left. Item
// i's outcome lands in res[i] or errs[i]; the returned error is reserved
// for failures that withhold every answer (eviction, a failed checkpoint).
func (s *Session) answerMisses(specs []convex.Spec, keys []string, idx []int, res []*QueryResult, errs []error) error {
	if len(idx) == 0 {
		return nil
	}
	// Build the miss losses before taking the lock: construction
	// enumerates the public universe and needs no session state. One build
	// per distinct canonical key not yet cached — cached keys and in-batch
	// duplicates resolve as cache hits below, so building them would be
	// wasted universe sweeps. A build failure is reported on each
	// occurrence, exactly as the sequential path would report it.
	type built struct {
		loss convex.Loss
		spec json.RawMessage
		err  error
	}
	byKey := make(map[string]built, len(idx))
	for _, i := range idx {
		if _, done := byKey[keys[i]]; done || s.cacheGet(keys[i]) != nil {
			continue
		}
		l, err := convex.Build(s.u, specs[i])
		b := built{loss: l, err: err}
		if err == nil && s.store != nil {
			if b.spec, err = json.Marshal(specs[i]); err != nil {
				b.err = fmt.Errorf("service: encoding query spec: %w", err)
			}
		}
		byKey[keys[i]] = b
	}
	s.mu.Lock()
	if s.pagedOut.Load() {
		s.mu.Unlock()
		return ErrPagedOut
	}
	needSave := false
	for _, i := range idx {
		if s.closed.Load() {
			errs[i] = ErrSessionClosed
			continue
		}
		// A cached item, or a repeat whose first occurrence an earlier
		// miss in this batch (or a concurrent request) answered, is served
		// from the cache, exactly as a sequential Query would. An entry
		// whose spend is not durable yet may be used *inside* the batch —
		// its release is gated by the trailing commit below, which
		// re-drives the sync if the entry's own writer is mid-fsync or
		// failed. Entries are never removed, so every key skipped by the
		// build loop lands here.
		if hit := s.cacheGet(keys[i]); hit != nil {
			if !s.servable(hit) {
				needSave = true
			}
			res[i] = s.hitResult(hit)
			continue
		}
		b := byKey[keys[i]]
		if b.err != nil {
			errs[i] = b.err
			continue
		}
		if s.rec.Srv.Halted() {
			errs[i] = ErrBudgetExhausted
			continue
		}
		r, err := s.answerLocked(b.loss, keys[i], b.spec)
		if err != nil {
			errs[i] = err
			continue
		}
		if r.Top {
			needSave = true
		}
		res[i] = r
	}
	seq := len(s.rec.T.Events)
	s.mu.Unlock()
	if s.store == nil {
		return nil
	}
	// Write-ahead: one log sync makes every spend in the batch durable
	// before any of its answers is released; a ⊥-only batch just drains
	// its records into the log. On a failed commit the caller gets an
	// error but the in-memory ledger and transcript keep the spend:
	// budget can be over-counted by a failed reply, never spent without
	// being counted.
	if needSave {
		return s.walCommit(seq)
	}
	// ⊥ answers spend nothing, so their records just move into the log
	// without waiting for a sync: best-effort durability, but the log —
	// not the pending queue — holds them, which keeps the compaction
	// thresholds honest. A broken log forces the next ⊤ commit into the
	// snapshot fallback.
	s.saveMu.Lock()
	s.appendPendingLocked()
	s.saveMu.Unlock()
	return nil
}

// SessionStatus is a point-in-time snapshot of a session's ledger.
type SessionStatus struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
	Closed  bool      `json:"closed"`
	// Exhausted reports that the mechanism has halted (K queries answered
	// or T updates spent); further queries are rejected.
	Exhausted bool `json:"exhausted"`

	QueriesUsed int `json:"queries_used"`
	QueriesMax  int `json:"queries_max"`
	UpdatesUsed int `json:"updates_used"`
	UpdatesMax  int `json:"updates_max"`

	// CacheHits counts answers this session served from its answer cache
	// (zero-spend repeats; they never count against QueriesUsed).
	CacheHits int64 `json:"cache_hits"`

	// Accountant is the accounting mode composing the session's spends.
	Accountant string `json:"accountant"`

	// Engine is the resolved evaluation engine ("dense" or "factored").
	Engine string `json:"engine"`

	// EpsBudget, DeltaBudget is the session's total budget; EpsSpent,
	// DeltaSpent the mechanism's current privacy bound for the interaction
	// so far (the up-front sparse-vector slice plus composed oracle calls);
	// EpsRemaining, DeltaRemaining the unspent difference, clamped at zero.
	EpsBudget      float64 `json:"eps_budget"`
	DeltaBudget    float64 `json:"delta_budget"`
	EpsSpent       float64 `json:"eps_spent"`
	DeltaSpent     float64 `json:"delta_spent"`
	EpsRemaining   float64 `json:"eps_remaining"`
	DeltaRemaining float64 `json:"delta_remaining"`

	// Eps0, Delta0 is the per-oracle-call budget of the composition
	// schedule — what one more ⊤ answer would cost; Rho0 the per-call zCDP
	// cost when the oracle certifies one.
	Eps0   float64 `json:"eps0"`
	Delta0 float64 `json:"delta0"`
	Rho0   float64 `json:"rho0,omitempty"`
}

// Status returns the session's current ledger snapshot.
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	srv := s.rec.Srv
	p := srv.Params()
	priv := srv.Privacy()
	rem := srv.Remaining()
	return SessionStatus{
		ID:             s.id,
		Created:        s.created,
		Closed:         s.closed.Load(),
		Exhausted:      srv.Halted(),
		QueriesUsed:    srv.Answered(),
		QueriesMax:     s.params.K,
		UpdatesUsed:    srv.Updates(),
		UpdatesMax:     p.T,
		CacheHits:      s.cacheHits.Load(),
		Accountant:     srv.AccountantName(),
		Engine:         srv.EngineName(),
		EpsBudget:      s.params.Eps,
		DeltaBudget:    s.params.Delta,
		EpsSpent:       priv.Eps,
		DeltaSpent:     priv.Delta,
		EpsRemaining:   rem.Eps,
		DeltaRemaining: rem.Delta,
		Eps0:           p.Eps0,
		Delta0:         p.Delta0,
		Rho0:           srv.CallCost().Rho,
	}
}

// TranscriptRecord is the serialized audit artifact of a session: the full
// event transcript plus the cumulative spend it implies.
type TranscriptRecord struct {
	ID         string                 `json:"id"`
	Transcript *transcript.Transcript `json:"transcript"`
	// Tops counts budget-spending (⊤) exchanges.
	Tops int `json:"tops"`
	// CumEps, CumDelta is the cumulative oracle spend over the recorded
	// events (basic composition); EpsBound, DeltaBound the mechanism's
	// tighter total guarantee including the sparse-vector slice.
	CumEps     float64 `json:"cum_eps"`
	CumDelta   float64 `json:"cum_delta"`
	EpsBound   float64 `json:"eps_bound"`
	DeltaBound float64 `json:"delta_bound"`
}

// TranscriptJSON serializes the session's transcript record. Marshaling
// happens under the session lock, so the snapshot is consistent even while
// other goroutines keep querying.
func (s *Session) TranscriptJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	eps, delta := s.rec.T.SpentOracle()
	priv := s.rec.Srv.Privacy()
	return json.Marshal(TranscriptRecord{
		ID:         s.id,
		Transcript: s.rec.T,
		Tops:       s.rec.T.Tops(),
		CumEps:     eps,
		CumDelta:   delta,
		EpsBound:   priv.Eps,
		DeltaBound: priv.Delta,
	})
}

// Close permanently stops the session and releases its manager slot.
// Subsequent queries fail with ErrSessionClosed; status and transcript
// reads keep working (subject to the manager's closed-session retention
// limit). On a durable manager the final state is snapshotted with the
// closed flag and the log deleted, so the session stays permanently closed
// across restarts; a snapshot failure is reported but the session closes
// regardless (its log still holds every committed spend). Closing twice
// returns ErrSessionClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.pagedOut.Load() {
		s.mu.Unlock()
		return ErrPagedOut
	}
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	s.closed.Store(true)
	cb := s.onClose
	s.onClose = nil
	s.mu.Unlock()
	var err error
	if s.store != nil {
		s.saveMu.Lock()
		err = s.retireLocked()
		s.saveMu.Unlock()
	}
	if cb != nil {
		cb()
	}
	return err
}

// suspend checkpoints a live session for a graceful restart and stops
// serving it, without recording a close: the state is folded into a
// Closed=false snapshot *before* the closed flag flips, so the next
// manager over the same store resumes the session exactly where it
// stopped. A ⊤ answer racing the fold finds no log and commits through
// the snapshot fallback. Best-effort: shutdown must not wedge on a full
// disk, and a failed fold leaves the log, which still holds every ⊤.
// Already-closed sessions are left alone.
func (s *Session) suspend() {
	if s.closed.Load() {
		return
	}
	if s.store != nil {
		s.saveMu.Lock()
		_ = s.retireLocked()
		s.saveMu.Unlock()
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.closed.Store(true)
	cb := s.onClose
	s.onClose = nil
	s.mu.Unlock()
	if cb != nil {
		cb()
	}
}
