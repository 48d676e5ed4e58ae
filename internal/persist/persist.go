// Package persist is the snapshot/restore persistence layer for the
// serving subsystem: versioned, self-describing codecs for per-session
// mechanism state and an atomic file store for a server's state directory.
//
// Why it exists: every analyst session tracks privacy-budget state that the
// paper's Figure-1 game requires to survive for the lifetime of the
// dataset — MW log weights, sparse-vector epoch counters and the pending
// noisy threshold, the accountant ledger, the noise-stream positions, and
// the audit transcript. Before this package that state lived only in
// process memory, so restarting `pmwcm serve` silently destroyed it.
//
// The format is a JSON envelope carrying a format name, an explicit schema
// version, and the payload. Self-description is deliberate: a state file
// identifies what it is without out-of-band context, decoding verifies
// format and version before touching the payload, and files written by a
// newer schema are refused rather than misread. Floating-point state
// round-trips exactly — encoding/json formats float64 with the shortest
// representation that parses back to the same bits — which the layer's
// central invariant depends on: a session restored from a snapshot
// continues bit-identically to an uninterrupted one (see core.Restore and
// the golden tests in internal/core and internal/service).
//
// A state directory holds one file per session plus a manifest recording
// the session-id sequence and a fingerprint of the private dataset, so a
// restart against the wrong data is detected instead of silently serving a
// different dataset under an old ledger. All writes are atomic
// (temp file + rename in the same directory), so a crash mid-write leaves
// the previous checkpoint intact, never a torn file.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/transcript"
)

// SchemaVersion is the current on-disk schema. Bump it when a payload
// shape changes incompatibly; Decode refuses files from newer schemas and
// future versions must keep decoding every older one they claim to.
const SchemaVersion = 1

// Format names identify payload types inside envelopes.
const (
	// FormatSession is a serialized SessionState.
	FormatSession = "pmwcm-session"
	// FormatManifest is a serialized Manifest.
	FormatManifest = "pmwcm-manifest"
)

// Envelope is the self-describing frame around every persisted payload.
type Envelope struct {
	// Format names the payload type (FormatSession, FormatManifest).
	Format string `json:"format"`
	// Version is the schema version the payload was written under.
	Version int `json:"version"`
	// SavedAt records the wall-clock write time (informational only; no
	// restored behavior depends on it).
	SavedAt time.Time `json:"saved_at"`
	// Payload is the enclosed document.
	Payload json.RawMessage `json:"payload"`
}

// Encode wraps payload in a current-version envelope.
func Encode(format string, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("persist: encoding %s payload: %w", format, err)
	}
	data, err := json.MarshalIndent(Envelope{
		Format:  format,
		Version: SchemaVersion,
		SavedAt: time.Now().UTC(),
		Payload: raw,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("persist: encoding %s envelope: %w", format, err)
	}
	return append(data, '\n'), nil
}

// Decode verifies the envelope's format and version, then unmarshals the
// payload into out. Files written by a newer schema are refused: the
// payload may carry state this version does not know how to restore, and
// guessing would corrupt a privacy ledger.
func Decode(data []byte, format string, out any) error {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("persist: decoding envelope: %w", err)
	}
	if env.Format != format {
		return fmt.Errorf("persist: file format %q, want %q", env.Format, format)
	}
	if env.Version < 1 || env.Version > SchemaVersion {
		return fmt.Errorf("persist: %s schema version %d not supported (current %d)", format, env.Version, SchemaVersion)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return fmt.Errorf("persist: decoding %s payload: %w", format, err)
	}
	return nil
}

// SessionState is the complete durable state of one analyst session: the
// mechanism snapshot plus the service-level identity and audit record
// around it. Params stays an opaque JSON document at this layer — the
// service owns its parameter schema; persist only guarantees the document
// round-trips.
type SessionState struct {
	// ID is the session identifier (also the state filename key).
	ID string `json:"id"`
	// Created is the session's creation time.
	Created time.Time `json:"created"`
	// Closed records an analyst-initiated permanent close. A graceful
	// server shutdown checkpoints sessions with Closed=false so they
	// resume live after restart.
	Closed bool `json:"closed"`
	// Oracle names the single-query oracle the session was served with.
	// Recovery refuses a mismatch: under some accountants an oracle swap
	// leaves every derived parameter unchanged, yet the continued answers
	// would no longer be the ones the uninterrupted run releases.
	Oracle string `json:"oracle"`
	// Params is the service-level session-parameter document.
	Params json.RawMessage `json:"params"`
	// Core is the mechanism snapshot.
	Core *core.Snapshot `json:"core"`
	// Transcript is the audit transcript up to the checkpoint.
	Transcript *transcript.Transcript `json:"transcript"`
}

// DatasetInfo fingerprints a private dataset for drift detection. The hash
// covers the row indices and the universe description; it is an integrity
// check against operator error (serving old state over different data),
// not a cryptographic commitment.
type DatasetInfo struct {
	N        int    `json:"n"`
	Universe string `json:"universe"`
	Hash     string `json:"hash"`
}

// Fingerprint computes the dataset's identity record.
func Fingerprint(d *dataset.Dataset) DatasetInfo {
	h := fnv.New64a()
	h.Write([]byte(d.U.String()))
	var buf [8]byte
	for _, r := range d.Rows {
		binary.LittleEndian.PutUint64(buf[:], uint64(r))
		h.Write(buf[:])
	}
	return DatasetInfo{
		N:        d.N(),
		Universe: d.U.String(),
		Hash:     fmt.Sprintf("fnv1a64:%016x", h.Sum64()),
	}
}

// Manifest is the state directory's root document.
type Manifest struct {
	// Seq is the highest session sequence number issued, so restarted
	// managers never reuse a session id.
	Seq uint64 `json:"seq"`
	// Dataset fingerprints the private dataset the sessions were served
	// from; opening the store against different data fails.
	Dataset DatasetInfo `json:"dataset"`
	// Source is the manager's root noise-stream position, recorded every
	// time a session source is split off it. Recovery resumes the root
	// stream from here — even if the operator changed the seed flag — so a
	// session created after a restart can never be handed a noise stream a
	// pre-restart session already drew from.
	Source sample.State `json:"source"`
}

// Store is a session state directory. Methods are not safe for concurrent
// use on the same id; the service serializes per-session saves behind the
// session mutex and manifest saves behind the manager mutex.
type Store struct {
	dir  string
	fsys fault.FS
	met  *storeMetrics
}

// storeMetrics holds the store's checkpoint instruments. nil means
// uninstrumented: the write path pays one nil check and no clock reads.
type storeMetrics struct {
	count map[string]*obs.Counter // by checkpoint kind
	bytes map[string]*obs.Counter
	fsync *obs.Histogram
	// WAL instruments (wal.go): records and bytes appended, compactions
	// (log folded into a snapshot and truncated), and torn-tail
	// truncations found at recovery.
	walRecords     *obs.Counter
	walBytes       *obs.Counter
	walCompactions *obs.Counter
	walTruncations *obs.Counter
}

// Checkpoint kind labels on the store's counters.
const (
	// KindManifest labels manifest checkpoints.
	KindManifest = "manifest"
	// KindSession labels per-session state checkpoints.
	KindSession = "session"
)

// Instrument attaches checkpoint observability to the store:
// pmwcm_checkpoint_total{kind} and pmwcm_checkpoint_bytes_total{kind}
// counters plus the pmwcm_fsync_seconds latency histogram. Call once,
// before the store is used concurrently; a nil registry is a no-op.
// Instrumentation is timing/volume-only and never alters what is written.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg != nil {
		s.met = newStoreMetrics(reg)
	}
}

// newStoreMetrics registers the checkpoint and WAL instruments both
// backends share, so dashboards are backend-agnostic.
func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	const (
		countHelp = "Durable checkpoints committed, by kind."
		bytesHelp = "Bytes committed to durable checkpoints, by kind."
	)
	m := &storeMetrics{
		count: map[string]*obs.Counter{},
		bytes: map[string]*obs.Counter{},
		fsync: reg.Histogram("pmwcm_fsync_seconds",
			"Checkpoint fsync latency in seconds.", obs.DefBuckets, nil),
		walRecords: reg.Counter("pmwcm_wal_records_total",
			"Records appended to session write-ahead logs.", nil),
		walBytes: reg.Counter("pmwcm_wal_bytes_total",
			"Bytes appended to session write-ahead logs (framing included).", nil),
		walCompactions: reg.Counter("pmwcm_wal_compactions_total",
			"WAL compactions: log folded into a snapshot and truncated.", nil),
		walTruncations: reg.Counter("pmwcm_wal_truncations_total",
			"Torn WAL tails truncated at recovery.", nil),
	}
	for _, kind := range []string{KindManifest, KindSession, KindWAL} {
		m.count[kind] = reg.Counter("pmwcm_checkpoint_total", countHelp, obs.Labels{"kind": kind})
		m.bytes[kind] = reg.Counter("pmwcm_checkpoint_bytes_total", bytesHelp, obs.Labels{"kind": kind})
	}
	return m
}

// Open creates the directory if needed and returns a store over it,
// backed by the real filesystem.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, fault.OS)
}

// OpenFS is Open over an explicit filesystem — the seam fault-injection
// drills use to intercept every durability syscall the store makes.
// Opening also sweeps stale ".tmp-*" files: a crash mid-writeAtomic (after
// the temp file was created, before its rename) leaves one behind, and no
// later write ever reuses or reads it, so the only correct recovery is to
// delete it.
func OpenFS(dir string, fsys fault.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: empty state directory")
	}
	if fsys == nil {
		fsys = fault.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating state directory: %w", err)
	}
	s := &Store{dir: dir, fsys: fsys}
	if err := s.sweepTemp(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepTemp removes stale temp files left by a crash mid-writeAtomic.
func (s *Store) sweepTemp() error {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("persist: listing state directory: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), tmpPrefix) {
			continue
		}
		if err := s.fsys.Remove(filepath.Join(s.dir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("persist: sweeping stale temp file %s: %w", e.Name(), err)
		}
	}
	return nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

const (
	manifestFile  = "manifest.json"
	sessionPrefix = "session-"
	sessionSuffix = ".json"
	tmpPrefix     = ".tmp-"
)

// validID restricts session ids to filename-safe characters so an id can
// never escape the state directory or collide with the manifest.
func validID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("persist: invalid session id %q", id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("persist: invalid session id %q", id)
		}
	}
	if strings.HasPrefix(id, ".") {
		return fmt.Errorf("persist: invalid session id %q", id)
	}
	return nil
}

// sessionPath maps an id to its state file.
func (s *Store) sessionPath(id string) string {
	return filepath.Join(s.dir, sessionPrefix+id+sessionSuffix)
}

// timedSync fsyncs f, landing the latency in the fsync histogram when the
// store is instrumented. Snapshot and WAL syncs share the instrument, so
// the histogram stays the one place fsync health is read from.
func (s *Store) timedSync(f fault.File) error {
	var start time.Time
	if s.met != nil {
		start = time.Now()
	}
	err := f.Sync()
	if s.met != nil && err == nil {
		s.met.fsync.Observe(time.Since(start).Seconds())
	}
	return err
}

// writeAtomic writes data to path via a temp file and rename, so readers
// and crash recovery only ever observe complete files. kind labels the
// checkpoint counters when the store is instrumented.
func (s *Store) writeAtomic(path, kind string, data []byte) error {
	if err := writeAtomicFS(s.fsys, s.dir, path, data, s.timedSync); err != nil {
		return err
	}
	if s.met != nil {
		s.met.count[kind].Inc()
		s.met.bytes[kind].Add(uint64(len(data)))
	}
	return nil
}

// SaveManifest atomically writes the manifest.
func (s *Store) SaveManifest(m *Manifest) error {
	data, err := Encode(FormatManifest, m)
	if err != nil {
		return err
	}
	return s.writeAtomic(filepath.Join(s.dir, manifestFile), KindManifest, data)
}

// LoadManifest reads the manifest, returning (nil, nil) when the directory
// has none yet (a fresh state directory).
func (s *Store) LoadManifest() (*Manifest, error) {
	data, err := s.fsys.ReadFile(filepath.Join(s.dir, manifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: reading manifest: %w", err)
	}
	var m Manifest
	if err := Decode(data, FormatManifest, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// SaveSession atomically writes one session's state file.
func (s *Store) SaveSession(st *SessionState) error {
	if err := validID(st.ID); err != nil {
		return err
	}
	data, err := Encode(FormatSession, st)
	if err != nil {
		return err
	}
	return s.writeAtomic(s.sessionPath(st.ID), KindSession, data)
}

// LoadSession reads one session's state file.
func (s *Store) LoadSession(id string) (*SessionState, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	data, err := s.fsys.ReadFile(s.sessionPath(id))
	if err != nil {
		return nil, fmt.Errorf("persist: reading session %s: %w", id, err)
	}
	var st SessionState
	if err := Decode(data, FormatSession, &st); err != nil {
		return nil, fmt.Errorf("persist: session %s: %w", id, err)
	}
	if st.ID != id {
		return nil, fmt.Errorf("persist: session file %s carries id %q", id, st.ID)
	}
	return &st, nil
}

// Sessions lists the ids with a state file, sorted. Discovery scans the
// directory rather than trusting the manifest, so a session checkpointed
// right before a crash is recovered even if no manifest write followed.
func (s *Store) Sessions() ([]string, error) {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: listing state directory: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return sessionIDs(names), nil
}

// sessionIDs picks the session ids out of state-file names, sorted.
func sessionIDs(names []string) []string {
	var ids []string
	for _, name := range names {
		if !strings.HasPrefix(name, sessionPrefix) || !strings.HasSuffix(name, sessionSuffix) {
			continue
		}
		id := strings.TrimSuffix(strings.TrimPrefix(name, sessionPrefix), sessionSuffix)
		if validID(id) == nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// DeleteSession removes a session's state file. Missing files are not an
// error: deletion is an idempotent cleanup.
func (s *Store) DeleteSession(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	return s.remove(s.sessionPath(id))
}

// remove deletes a file, succeeding when it is already gone.
func (s *Store) remove(path string) error {
	if err := s.fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: deleting %s: %w", filepath.Base(path), err)
	}
	return nil
}
