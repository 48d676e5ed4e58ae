package service

// evict.go is the idle-session eviction layer: the piece that lets one
// manager *host* far more sessions than fit in memory by keeping only
// recently-touched ones resident. An evicted session's complete state is
// folded into its durable snapshot and its WAL deleted, the in-memory
// incarnation drops out of the session table, and the next touch pages it
// back in through restore — the same verified path crash recovery uses, so the paged-in session continues bit-identically to one that was
// never evicted (pinned by TestEvictPageInGolden).
//
// Concurrency contract: m.paging holds a gate channel per id with an
// eviction or page-in in flight. Lookups wait on the gate and retry;
// operations racing an eviction on a stale *Session observe its pagedOut
// flag, fail with ErrPagedOut, and the manager-level wrappers
// (Manager.Query etc.) page in and retry. Residency changes only under
// m.mu, so resident + paged-out counts stay consistent.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/convex"
)

// ErrPagedOut reports an operation on a session incarnation the manager
// has evicted from residency. It is internal back-pressure: manager-level
// entry points retry through a page-in and callers of those never see it;
// it only escapes to direct holders of a stale *Session handle.
var ErrPagedOut = errors.New("service: session paged out")

// evict folds the session's state into its durable snapshot, deletes its
// log, and marks this incarnation paged out. Called by the manager with
// the id's paging gate held. On a fold failure the flag is cleared and the
// session stays resident with its log — eviction must never strand state
// that exists only in memory.
func (s *Session) evict() error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	s.pagedOut.Store(true)
	s.mu.Unlock()
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	if err := s.retireLocked(); err != nil {
		s.pagedOut.Store(false)
		return err
	}
	return nil
}

// Evict forces one live resident session out of memory after folding its
// state into the store. Evicting a session that is already paged out (or
// mid-page) succeeds as a no-op; closed sessions are not evictable (the
// RetainClosed bound governs them), and a memory-only manager has nowhere
// to evict to. The janitor and the -max-resident admission sweep both
// funnel through here; it is exported so operators and tests can force
// the transition.
func (m *Manager) Evict(id string) error {
	if m.cfg.Store == nil {
		return ErrNotDurable
	}
	m.mu.Lock()
	s, ok := m.sessions[id]
	if !ok {
		paged := m.pagedOut[id] || m.paging[id] != nil
		m.mu.Unlock()
		if paged {
			return nil
		}
		return ErrSessionNotFound
	}
	if s.closed.Load() {
		m.mu.Unlock()
		return ErrSessionClosed
	}
	gate := make(chan struct{})
	m.paging[id] = gate
	delete(m.sessions, id)
	m.mu.Unlock()

	err := s.evict()
	m.mu.Lock()
	switch {
	case err == nil:
		m.pagedOut[id] = true
		m.residentLive--
		m.met.evicted()
	case errors.Is(err, ErrSessionClosed):
		// The session closed between victim selection and the fold; put the
		// closed incarnation back so audits keep finding it (its slot was
		// already released by Close).
		m.sessions[id] = s
	default:
		// Fold failed: the session stays resident and live.
		m.sessions[id] = s
	}
	delete(m.paging, id)
	m.mu.Unlock()
	close(gate)
	return err
}

// pageIn restores one paged-out session from the store through restore,
// the path crash recovery runs, so residency cycles cannot weaken the
// restore guarantees. Called with the id's paging gate held.
func (m *Manager) pageIn(id string) (*Session, error) {
	st, err := m.cfg.Store.LoadSession(id)
	if err != nil {
		return nil, err
	}
	walRecs, err := m.cfg.Store.LoadWAL(id)
	if err != nil {
		return nil, err
	}
	return m.restore(st, walRecs)
}

// enforceResident evicts least-recently-touched live sessions until the
// resident count is back under Config.MaxResident. except names a session
// that must survive the sweep (the one just created or paged in — the
// reason the sweep is running).
func (m *Manager) enforceResident(except string) {
	if m.cfg.MaxResident <= 0 || m.cfg.Store == nil {
		return
	}
	for {
		m.mu.Lock()
		if m.shutdown || m.residentLive <= m.cfg.MaxResident {
			m.mu.Unlock()
			return
		}
		victim := ""
		var oldest int64
		for id, s := range m.sessions {
			if id == except || s.closed.Load() {
				continue
			}
			if t := s.lastTouch.Load(); victim == "" || t < oldest {
				victim, oldest = id, t
			}
		}
		m.mu.Unlock()
		if victim == "" {
			return
		}
		if err := m.Evict(victim); err != nil {
			// A closed or vanished victim is re-scanned on the next pass; any
			// other failure (a fold that cannot write) will not improve by
			// picking a different victim right now.
			if errors.Is(err, ErrSessionClosed) || errors.Is(err, ErrSessionNotFound) {
				continue
			}
			return
		}
	}
}

// janitor is the idle-eviction loop a manager with Config.IdleTTL runs:
// every interval it folds out sessions whose last touch is older than the
// TTL. It stops when Shutdown closes janitorStop.
func (m *Manager) janitor() {
	interval := m.cfg.IdleTTL / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-tick.C:
			m.evictIdle()
		}
	}
}

// evictIdle sweeps one idle-eviction pass.
func (m *Manager) evictIdle() {
	cutoff := time.Now().Add(-m.cfg.IdleTTL).UnixNano()
	m.mu.Lock()
	var victims []string
	for id, s := range m.sessions {
		if s.closed.Load() {
			continue
		}
		if s.lastTouch.Load() < cutoff {
			victims = append(victims, id)
		}
	}
	m.mu.Unlock()
	for _, id := range victims {
		_ = m.Evict(id)
	}
}

// ResidentSessions returns the number of live sessions currently holding
// memory (open sessions minus paged-out ones).
func (m *Manager) ResidentSessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.residentLive
}

// withSession runs fn against the session's resident incarnation, paging
// it in if needed and retrying when an eviction wins the race between
// lookup and use. The retry bound exists only to turn a livelock bug into
// an error; two passes already require back-to-back evictions of a
// just-touched session.
func (m *Manager) withSession(id string, fn func(*Session) error) error {
	for attempt := 0; ; attempt++ {
		s, err := m.Session(id)
		if err != nil {
			return err
		}
		err = fn(s)
		if errors.Is(err, ErrPagedOut) && attempt < 4 {
			continue
		}
		if errors.Is(err, ErrPagedOut) {
			return fmt.Errorf("service: session %s: eviction kept outrunning page-in: %w", id, err)
		}
		return err
	}
}

// Query answers one query on the identified session, paging it in when
// evicted. The HTTP layer calls these manager-level wrappers rather than
// holding *Session handles across requests, so an eviction between two
// requests of one analyst is invisible to them.
func (m *Manager) Query(id string, spec convex.Spec) (*QueryResult, error) {
	var res *QueryResult
	err := m.withSession(id, func(s *Session) error {
		var err error
		res, err = s.Query(spec)
		return err
	})
	return res, err
}

// QueryBatch answers a batch on the identified session, paging it in when
// evicted.
func (m *Manager) QueryBatch(id string, specs []convex.Spec) ([]BatchItem, error) {
	var items []BatchItem
	err := m.withSession(id, func(s *Session) error {
		var err error
		items, err = s.QueryBatch(specs)
		return err
	})
	return items, err
}

// SessionStatus reports the identified session's ledger snapshot, paging
// it in when evicted.
func (m *Manager) SessionStatus(id string) (SessionStatus, error) {
	var st SessionStatus
	err := m.withSession(id, func(s *Session) error {
		st = s.Status()
		return nil
	})
	return st, err
}

// SessionTranscript serializes the identified session's transcript
// record, paging it in when evicted.
func (m *Manager) SessionTranscript(id string) ([]byte, error) {
	var b []byte
	err := m.withSession(id, func(s *Session) error {
		var err error
		b, err = s.TranscriptJSON()
		return err
	})
	return b, err
}

// CheckpointSession forces a durable snapshot of the identified session,
// paging it in when evicted.
func (m *Manager) CheckpointSession(id string) error {
	return m.withSession(id, func(s *Session) error { return s.Checkpoint() })
}
