package persist

// wal.go is the append-only write-ahead log beside each session's snapshot
// file. The snapshot path (persist.go) rewrites the session's complete
// state — MW table, ledger, transcript — on every durable point, which is
// correct but O(state) per ⊤ answer. The WAL makes the common durable
// point O(1): each budget-relevant exchange appends one small
// self-describing record, and recovery is "load the last snapshot, replay
// the WAL tail". Compaction periodically folds the log back into the
// snapshot format and truncates it, so neither file grows without bound.
// The log is the only per-⊤ durable point on every backend: a state
// directory keeps it as a file, a remote namespace as a blob of the same
// name and bytes (see blobSink in backend.go), so a copied-down namespace
// is still a valid state directory.
//
// File layout: session-<id>.wal holds a header record followed by event
// records, each framed as
//
//	[4-byte little-endian payload length]
//	[4-byte little-endian IEEE CRC32 of the payload]
//	[payload: JSON WALRecord]
//
// The frame makes torn tails detectable without trusting file contents: a
// crash mid-append leaves a record whose length field runs past EOF or
// whose CRC disagrees, and LoadWAL truncates the file at the first such
// frame. Truncation is safe by the service's commit discipline — every
// ⊤ record is fsynced before its answer is released, so a torn tail can
// only hold ⊥ records (which spend nothing) or a ⊤ whose answer no
// analyst ever saw.
//
// Unlike snapshots, WAL appends are deliberately not atomic-rename writes:
// the whole point is to pay one small sequential write (plus a batched
// fsync, see committer.go; over a remote store, one conditional append
// request) instead of rewriting a file. The envelope-style
// self-description lives in the header record instead.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/transcript"
)

// FormatWAL is the self-describing format name carried by the first record
// of every WAL file.
const FormatWAL = "pmwcm-wal"

// WAL record kinds.
const (
	// WALHeader is the mandatory first record of a WAL file: format name,
	// schema version, and owning session id.
	WALHeader = "header"
	// WALEvent is one recorded query/answer exchange: the serialized query
	// spec plus the transcript event it produced (answer, disposition,
	// ledger delta). Replay re-executes the spec against the restored state
	// and verifies the produced event matches bit for bit, so a record
	// implicitly carries the RNG positions too — the restored noise stream
	// must be exactly where the original was for the comparison to pass.
	WALEvent = "event"
	// WALClose records an analyst-initiated permanent close.
	WALClose = "close"
)

// KindWAL labels WAL appends on the store's checkpoint counters.
const KindWAL = "wal"

// WALRecord is one framed entry of a session WAL.
type WALRecord struct {
	// Kind is WALHeader, WALEvent, or WALClose.
	Kind string `json:"kind"`
	// Format and Version self-describe the file; set on header records.
	Format  string `json:"format,omitempty"`
	Version int    `json:"version,omitempty"`
	// ID is the owning session id; set on header records so a misplaced or
	// cross-copied WAL file is refused.
	ID string `json:"id,omitempty"`
	// Seq is the transcript index the record corresponds to (event records:
	// the event's 1-based index; close records: the transcript length at
	// close). Replay refuses gaps.
	Seq int `json:"seq,omitempty"`
	// Spec is the serialized convex.Spec of an event record's query, the
	// input replay re-executes.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Event is the transcript event the exchange produced — answer,
	// disposition, ledger delta, cache key — the expected output replay
	// verifies against.
	Event *transcript.Event `json:"event,omitempty"`
}

// walSuffix names WAL files beside their session's snapshot file.
const walSuffix = ".wal"

// walPath maps a session id to its WAL file.
func (s *Store) walPath(id string) string {
	return filepath.Join(s.dir, sessionPrefix+id+walSuffix)
}

// WAL is an open, append-only session log over one of two sinks: a file
// in a state directory (Store.OpenWAL) or a blob in a remote namespace
// (Remote.OpenWAL). Both carry the same framed bytes, and both grow only
// by Append, harden by Sync, and shrink only by Reset. Append and Reset
// are not safe for concurrent use; the service serializes them behind the
// session's save mutex. Sync may run concurrently with them (the group
// committer calls it from its own goroutine while the session keeps
// appending): it covers every record appended before the call.
type WAL struct {
	sink    walSink
	id      string
	met     *storeMetrics
	records int   // event/close records in the log (header excluded)
	bytes   int64 // log size including header and framing
}

// walSink is where a WAL's framed bytes go. write may buffer; sync makes
// everything written before it durable; reset durably replaces the whole
// log with the given header frame.
type walSink interface {
	write(p []byte) error
	sync() error
	reset(header []byte) error
	close() error
}

// fileSink is the state-directory sink: writes go straight to the file
// (the OS page cache is the buffer) and sync is an fsync.
type fileSink struct {
	f     fault.File
	store *Store
}

func (k fileSink) write(p []byte) error { _, err := k.f.Write(p); return err }
func (k fileSink) sync() error          { return k.store.timedSync(k.f) }
func (k fileSink) close() error         { return k.f.Close() }

// reset truncates the file and rewrites the header. The truncation is
// synced so a crash right after compaction cannot resurrect
// pre-compaction records next to the newer snapshot (replay would skip
// them by seq, but an unsynced truncate could also tear and leave garbage
// mid-file).
func (k fileSink) reset(header []byte) error {
	if err := k.f.Truncate(0); err != nil {
		return err
	}
	if _, err := k.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := k.f.Write(header); err != nil {
		return err
	}
	return k.f.Sync()
}

// frame encodes one record as [len][crc][payload].
func frame(rec *WALRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("persist: encoding wal record: %w", err)
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	return buf, nil
}

// walHeader builds the self-describing first record for id.
func walHeader(id string) *WALRecord {
	return &WALRecord{Kind: WALHeader, Format: FormatWAL, Version: SchemaVersion, ID: id}
}

// headerFrame is walHeader framed (a header record always encodes).
func headerFrame(id string) []byte {
	buf, _ := frame(walHeader(id))
	return buf
}

// OpenWAL opens (creating if needed) the append-only WAL for a session. A
// fresh file gets its self-describing header record; an existing file is
// opened at its current end — callers that need the existing contents
// replayed must LoadWAL first (which also truncates any torn tail, so the
// append position is always a clean frame boundary).
func (s *Store) OpenWAL(id string) (*WAL, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	f, err := s.fsys.OpenFile(s.walPath(id), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening wal for %s: %w", id, err)
	}
	w := &WAL{sink: fileSink{f: f, store: s}, id: id, met: s.met}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: stat wal for %s: %w", id, err)
	}
	if info.Size() == 0 {
		header := headerFrame(id)
		if _, err := f.Write(header); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: writing wal header for %s: %w", id, err)
		}
		w.bytes = int64(len(header))
		return w, nil
	}
	// Existing file: count its records so the compaction thresholds keep
	// working across a reopen, and position the cursor at the end.
	recs, size, _, err := readWAL(f, id)
	if err != nil {
		f.Close()
		return nil, err
	}
	if size != info.Size() {
		// A torn tail survived to OpenWAL (LoadWAL normally truncates it
		// first). Cut it here so appends land on a frame boundary.
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: truncating torn wal tail for %s: %w", id, err)
		}
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: seeking wal for %s: %w", id, err)
	}
	w.records = len(recs)
	w.bytes = size
	return w, nil
}

// Append frames and writes one record without making it durable;
// durability comes from a later Sync (usually via the group committer).
// An error leaves the log possibly mid-frame — the caller must treat the
// WAL as broken and fall back to snapshot saves until a Reset heals it
// (replay-side, the torn frame truncates harmlessly).
func (w *WAL) Append(rec *WALRecord) error {
	buf, err := frame(rec)
	if err != nil {
		return err
	}
	if err := w.sink.write(buf); err != nil {
		return fmt.Errorf("persist: appending wal record for %s: %w", w.id, err)
	}
	w.records++
	w.bytes += int64(len(buf))
	if m := w.met; m != nil {
		m.walRecords.Inc()
		m.walBytes.Add(uint64(len(buf)))
	}
	return nil
}

// Sync makes every record appended before the call durable: an fsync on a
// file, one conditional append on a blob.
func (w *WAL) Sync() error {
	if err := w.sink.sync(); err != nil {
		return fmt.Errorf("persist: syncing wal for %s: %w", w.id, err)
	}
	if m := w.met; m != nil {
		m.count[KindWAL].Inc()
	}
	return nil
}

// Reset durably replaces the log with an empty (header-only) one — the
// compaction step after the snapshot covering its records has been
// written.
func (w *WAL) Reset() error {
	header := headerFrame(w.id)
	if err := w.sink.reset(header); err != nil {
		return fmt.Errorf("persist: truncating wal for %s: %w", w.id, err)
	}
	w.records = 0
	w.bytes = int64(len(header))
	if m := w.met; m != nil {
		m.walCompactions.Inc()
	}
	return nil
}

// Records returns the number of event/close records in the file (header
// excluded) — one of the two compaction-trigger inputs.
func (w *WAL) Records() int { return w.records }

// Bytes returns the file size in bytes — the other compaction trigger.
func (w *WAL) Bytes() int64 { return w.bytes }

// Close releases the sink (without syncing; callers sync first when the
// tail matters).
func (w *WAL) Close() error { return w.sink.close() }

// readWAL reads every complete, checksummed record from f, stopping at the
// first torn or corrupt frame. It returns the event/close records (header
// verified and stripped), the byte offset of the clean prefix, and whether
// a torn tail was found after it.
func readWAL(f fault.File, id string) (recs []*WALRecord, clean int64, torn bool, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false, fmt.Errorf("persist: rewinding wal for %s: %w", id, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, false, fmt.Errorf("persist: reading wal for %s: %w", id, err)
	}
	return parseWAL(data, id)
}

// parseWAL is readWAL's pure frame parser over the raw file bytes — split
// out so the fuzz target can feed it arbitrary inputs without touching
// disk. Every returned record passed its length and CRC checks and
// decoded; clean is always a frame boundary within data.
func parseWAL(data []byte, id string) (recs []*WALRecord, clean int64, torn bool, err error) {
	off := 0
	sawHeader := false
	for {
		if off+8 > len(data) {
			torn = off < len(data)
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n < 0 || off+8+n > len(data) {
			torn = true
			break
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			torn = true
			break
		}
		var rec WALRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A frame that checksums but does not parse was written torn
			// before its CRC — impossible under this writer — or by a
			// foreign tool. Refuse rather than truncate: unlike a torn
			// tail, mid-file garbage means the file is not ours.
			return nil, 0, false, fmt.Errorf("persist: wal for %s: undecodable record at offset %d: %w", id, off, err)
		}
		if !sawHeader {
			if rec.Kind != WALHeader || rec.Format != FormatWAL {
				return nil, 0, false, fmt.Errorf("persist: wal for %s: missing header record", id)
			}
			if rec.Version < 1 || rec.Version > SchemaVersion {
				return nil, 0, false, fmt.Errorf("persist: wal schema version %d not supported (current %d)", rec.Version, SchemaVersion)
			}
			if rec.ID != id {
				return nil, 0, false, fmt.Errorf("persist: wal file for %s carries id %q", id, rec.ID)
			}
			sawHeader = true
		} else {
			r := rec
			recs = append(recs, &r)
		}
		off += 8 + n
	}
	if !sawHeader && !torn {
		// Zero-length file: treat as empty (fresh) WAL.
		if len(data) != 0 {
			return nil, 0, false, fmt.Errorf("persist: wal for %s: missing header record", id)
		}
	}
	return recs, int64(off), torn, nil
}

// LoadWAL reads a session's WAL tail for replay. A missing file returns
// (nil, nil): no tail to replay. A torn tail — a crash mid-append — is
// truncated in place (and the truncation synced) so subsequent appends
// land on a clean frame boundary; everything before the tear is returned.
// Mid-file corruption (a record that checksums but does not belong) is an
// error, never silently skipped.
func (s *Store) LoadWAL(id string) ([]*WALRecord, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	f, err := s.fsys.OpenFile(s.walPath(id), os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: opening wal for %s: %w", id, err)
	}
	defer f.Close()
	recs, clean, torn, err := readWAL(f, id)
	if err != nil {
		return nil, err
	}
	if torn {
		if err := f.Truncate(clean); err != nil {
			return nil, fmt.Errorf("persist: truncating torn wal tail for %s: %w", id, err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("persist: syncing truncated wal for %s: %w", id, err)
		}
		if m := s.met; m != nil {
			m.walTruncations.Inc()
		}
	}
	return recs, nil
}

// RemoveWAL deletes a session's WAL file. Missing files are not an error:
// removal is idempotent cleanup, the same contract as DeleteSession.
func (s *Store) RemoveWAL(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	return s.remove(s.walPath(id))
}
