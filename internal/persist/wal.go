package persist

// wal.go is the append-only write-ahead log beside each session's
// snapshot. A snapshot holds the session's complete state — MW table,
// ledger, transcript — so writing one is O(state). The log makes the
// per-⊤ durable point O(1): each budget-relevant exchange appends one
// small self-describing record, and recovery is "load the last snapshot,
// replay the log tail". Compaction periodically folds the log back into
// a snapshot and truncates it, so neither document grows without bound.
// The log is the only per-⊤ durable point over either transport: a file
// (fileSink, dir.go) or a blob of the same name and bytes (blobSink).
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
// whose CRC disagrees, and LoadWAL cuts the log back before the first
// such frame. Truncation is safe by the service's commit discipline — every
// ⊤ record is fsynced before its answer is released, so a torn tail can
// only hold ⊥ records (which spend nothing) or a ⊤ whose answer no
// analyst ever saw.
//
// Unlike snapshots, WAL appends are deliberately not atomic-rename writes:
// the whole point is to pay one small sequential write plus one fsync
// (over a remote store, one conditional append request) instead of
// rewriting a file. The envelope-style self-description lives in the
// header record instead.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync"

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

// WAL is an open, append-only session log (Store.OpenWAL) over one of two
// sinks: a file in a state directory or a blob in a remote namespace.
// Both carry the same framed bytes, and both grow only by Append, harden
// by Sync, and shrink only by Reset. Append and Reset are not safe for
// concurrent use; the service serializes them behind the session's save
// mutex. Sync may run concurrently with them (the service
// syncs outside that mutex, so one session's commits can overlap): it
// covers every record appended before the call.
//
// Two rules hold for both sinks. Syncs of one log run one at a time, and
// a Reset waits for the sync in flight. A failed Sync (or Reset) is
// sticky: every later Sync returns the same error until a Reset succeeds.
// A blob sink that failed may lack records a later sync would not resend,
// and a file's later fsync can report success after writeback dropped
// the pages the failed one covered, so only rewriting the log heals it.
type WAL struct {
	sink    walSink
	id      string
	met     *storeMetrics
	records int   // event/close records in the log (header excluded)
	bytes   int64 // log size including header and framing

	syncMu sync.Mutex // serializes sink sync and reset; guards err
	err    error      // sticky failure, cleared by a successful Reset
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

// headerFrame is the framed self-describing first record of id's log (a
// header record always encodes).
func headerFrame(id string) []byte {
	buf, _ := frame(&WALRecord{Kind: WALHeader, Format: FormatWAL, Version: SchemaVersion, ID: id})
	return buf
}

// Append frames and writes one record without making it durable;
// durability comes from a later Sync.
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
// file, one conditional append on a blob. It waits for a sync of the same
// log already in flight, and fails without touching the sink once an
// earlier Sync or Reset has failed.
func (w *WAL) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.sink.sync(); err != nil {
		w.err = fmt.Errorf("persist: syncing wal for %s: %w", w.id, err)
		return w.err
	}
	if m := w.met; m != nil {
		m.count[KindWAL].Inc()
	}
	return nil
}

// Reset durably replaces the log with an empty (header-only) one — the
// compaction step after the snapshot covering its records has been
// written. A successful Reset clears a sticky sync failure.
func (w *WAL) Reset() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	header := headerFrame(w.id)
	if err := w.sink.reset(header); err != nil {
		w.err = fmt.Errorf("persist: truncating wal for %s: %w", w.id, err)
		return w.err
	}
	w.err = nil
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

// parseWAL reads every complete, checksummed record from a log's raw
// bytes, stopping at the first torn or corrupt frame. It returns the
// event/close records (header verified and stripped), the byte offset of
// the clean prefix, and whether a torn tail follows it. Every returned
// record passed its length and CRC checks and decoded; clean is always a
// frame boundary within data. It is pure, so the fuzz target feeds it
// arbitrary inputs without touching disk.
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
