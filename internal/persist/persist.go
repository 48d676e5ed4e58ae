// Package persist is the snapshot/restore persistence layer for the
// serving subsystem: versioned, self-describing codecs for per-session
// mechanism state and one session store over two transports.
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
// A store holds a snapshot and a write-ahead log (wal.go) per session plus
// a manifest recording the session-id sequence and a fingerprint of the
// private dataset, so a restart against the wrong data is detected instead
// of silently serving a different dataset under an old ledger. Store
// writes that contract once; its documents live as files in a state
// directory (dir.go) or as same-named blobs in a `pmwcm store` namespace
// (backend.go, served by blobserver.go). Replacing writes are atomic, so a
// crash mid-write leaves the previous checkpoint intact, never a torn one.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
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

// Store is the Backend: the session-store contract written once over a
// transport — a state directory (Open, OpenFS) or a blob-store namespace
// (OpenRemote). Methods are not safe for concurrent use on the same id;
// the service serializes per-session saves behind the session mutex and
// manifest saves behind the manager mutex.
type Store struct {
	t   transport
	loc string // Location
	met *storeMetrics
}

// transport reaches a store's documents by state-dir file name; the Store
// checks ids before they become names. A missing document is errNotFound.
type transport interface {
	// instrument adds the transport's own instruments to the store's m.
	instrument(reg *obs.Registry, m *storeMetrics)
	get(name string) ([]byte, error)
	put(name string, data []byte) error // atomic replace
	remove(name string) error           // idempotent
	list() ([]string, error)            // sorted, temp files excluded
	// loadLog reads the log at name and hands its bytes to parse; when
	// parse reports a torn tail, loadLog durably cuts the log back to the
	// clean prefix and reports that it did.
	loadLog(name string, parse func(data []byte) (clean int64, torn bool, err error)) (cut bool, err error)
	openLog(id string, met *storeMetrics) (*WAL, error) // see Backend.OpenWAL
}

// errNotFound marks an absent document: loads tell "absent" from broken.
var errNotFound = errors.New("persist: blob not found")

// storeMetrics holds the store's checkpoint instruments. nil means
// uninstrumented: the write path pays one nil check and no clock reads.
type storeMetrics struct {
	count map[string]*obs.Counter // by checkpoint kind
	bytes map[string]*obs.Counter
	fsync *obs.Histogram
	// WAL instruments (wal.go).
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
// counters, the WAL counters, and the pmwcm_fsync_seconds latency
// histogram, under the same names over either transport, plus the remote
// request instruments over a blob store. Call once, before the store is
// used concurrently; a nil registry is a no-op. Instrumentation is
// timing/volume-only and never alters what is written.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
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
		m.count[kind] = reg.Counter("pmwcm_checkpoint_total",
			"Durable checkpoints committed, by kind.", obs.Labels{"kind": kind})
		m.bytes[kind] = reg.Counter("pmwcm_checkpoint_bytes_total",
			"Bytes committed to durable checkpoints, by kind.", obs.Labels{"kind": kind})
	}
	s.met = m
	s.t.instrument(reg, m)
}

// Open creates the directory if needed and returns a store over it,
// backed by the real filesystem.
func Open(dir string) (*Store, error) { return OpenFS(dir, fault.OS) }

// OpenFS is Open over an explicit filesystem — the seam fault-injection
// drills use to intercept every durability syscall the store makes.
// Opening also sweeps the stale temp files a crash mid-write leaves
// behind (see dirTransport.sweep).
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
	d := &dirTransport{dir: dir, fsys: fsys}
	if _, err := d.sweep(); err != nil {
		return nil, err
	}
	return &Store{t: d, loc: dir}, nil
}

// Document names: the manifest, each session's snapshot and log, and the
// temp files atomic replaces write through.
const (
	manifestFile  = "manifest.json"
	sessionPrefix = "session-"
	sessionSuffix = ".json"
	walSuffix     = ".wal"
	tmpPrefix     = ".tmp-"
)

// ValidateID reports whether id is usable as a session id: non-empty,
// ≤128 filename-safe characters, no leading dot, so an id can never
// escape the state directory or collide with the manifest. Exposed so
// layers that mint or accept ids (the router, the service's requested-id
// path) agree with the store about what can be persisted.
func ValidateID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("persist: invalid session id %q", id)
	}
	for i, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.' && i > 0:
		default:
			return fmt.Errorf("persist: invalid session id %q", id)
		}
	}
	return nil
}

// sessionName and walName map a session id to its documents' names.
func sessionName(id string) string { return sessionPrefix + id + sessionSuffix }
func walName(id string) string     { return sessionPrefix + id + walSuffix }

// Store implements Backend over either transport.
var _ Backend = (*Store)(nil)

// Location names where state lives: the state directory path or the
// namespace URL.
func (s *Store) Location() string { return s.loc }

// put durably replaces one document. kind labels the checkpoint counters
// when the store is instrumented.
func (s *Store) put(name, kind string, data []byte) error {
	if err := s.t.put(name, data); err != nil {
		return err
	}
	if s.met != nil {
		s.met.count[kind].Inc()
		s.met.bytes[kind].Add(uint64(len(data)))
	}
	return nil
}

// SaveManifest durably replaces the manifest.
func (s *Store) SaveManifest(m *Manifest) error {
	data, err := Encode(FormatManifest, m)
	if err != nil {
		return err
	}
	return s.put(manifestFile, KindManifest, data)
}

// LoadManifest reads the manifest, returning (nil, nil) when the store
// has none yet (a fresh state directory or namespace).
func (s *Store) LoadManifest() (*Manifest, error) {
	data, err := s.t.get(manifestFile)
	if errors.Is(err, errNotFound) {
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

// SaveSession durably replaces one session's state document.
func (s *Store) SaveSession(st *SessionState) error {
	if err := ValidateID(st.ID); err != nil {
		return err
	}
	data, err := Encode(FormatSession, st)
	if err != nil {
		return err
	}
	return s.put(sessionName(st.ID), KindSession, data)
}

// LoadSession reads one session's state document.
func (s *Store) LoadSession(id string) (*SessionState, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	data, err := s.t.get(sessionName(id))
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

// Sessions lists the ids with a state document, sorted. Discovery lists
// the documents rather than trusting the manifest, so a session
// checkpointed right before a crash is recovered even if no manifest
// write followed.
func (s *Store) Sessions() ([]string, error) {
	names, err := s.t.list()
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, name := range names {
		id, doc := strings.CutPrefix(name, sessionPrefix)
		if id, ok := strings.CutSuffix(id, sessionSuffix); doc && ok && ValidateID(id) == nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// DeleteSession removes a session's state document. A missing one is not
// an error: deletion is an idempotent cleanup.
func (s *Store) DeleteSession(id string) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	return s.t.remove(sessionName(id))
}

// OpenWAL opens a session's append log: a state-dir file resumes at its
// end, a blob log is replaced by its first Sync.
func (s *Store) OpenWAL(id string) (*WAL, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	return s.t.openLog(id, s.met)
}

// LoadWAL reads a session's log tail for replay. A missing log returns
// (nil, nil): no tail to replay. A torn tail — a crash mid-append — is
// cut back durably to its clean prefix so later appends land on a frame
// boundary; everything before the tear is returned. Mid-log corruption
// (a record that checksums but does not belong) is an error, never
// silently skipped.
func (s *Store) LoadWAL(id string) ([]*WALRecord, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	var recs []*WALRecord
	cut, err := s.t.loadLog(walName(id), func(data []byte) (clean int64, torn bool, err error) {
		recs, clean, torn, err = parseWAL(data, id)
		return clean, torn, err
	})
	if errors.Is(err, errNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if cut && s.met != nil {
		s.met.walTruncations.Inc()
	}
	return recs, nil
}

// RemoveWAL deletes a session's log. A missing one is not an error:
// removal is idempotent cleanup, the same contract as DeleteSession.
func (s *Store) RemoveWAL(id string) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	return s.t.remove(walName(id))
}
