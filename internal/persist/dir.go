package persist

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// dirTransport keeps documents as files in dir, reached through the
// fault.FS seam so drills can intercept every durability syscall; the
// blob server keeps each namespace through it too. Replacing writes are
// atomic (temp file + fsync + rename in the same directory).
type dirTransport struct {
	dir  string
	fsys fault.FS
	met  *storeMetrics // nil: fsyncs are not timed
}

func (d *dirTransport) instrument(_ *obs.Registry, m *storeMetrics) { d.met = m }

func (d *dirTransport) path(name string) string { return filepath.Join(d.dir, name) }

// timedSync fsyncs f, landing the latency in the fsync histogram when the
// store is instrumented. Document and log syncs share the instrument, so
// the histogram stays the one place fsync health is read from.
func (d *dirTransport) timedSync(f fault.File) error {
	if d.met == nil {
		return f.Sync()
	}
	start := time.Now()
	err := f.Sync()
	if err == nil {
		d.met.fsync.Observe(time.Since(start).Seconds())
	}
	return err
}

func (d *dirTransport) get(name string) ([]byte, error) {
	data, err := d.fsys.ReadFile(d.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", errNotFound, name)
	}
	return data, err
}

// put writes data via a temp file and a rename, so readers and crash
// recovery only ever observe complete files.
func (d *dirTransport) put(name string, data []byte) error {
	tmp, err := d.fsys.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("persist: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	serr := d.timedSync(tmp)
	cerr := tmp.Close()
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			d.fsys.Remove(tmpName)
			return fmt.Errorf("persist: writing %s: %w", name, err)
		}
	}
	if err := d.fsys.Rename(tmpName, d.path(name)); err != nil {
		d.fsys.Remove(tmpName)
		return fmt.Errorf("persist: committing %s: %w", name, err)
	}
	return nil
}

func (d *dirTransport) remove(name string) error {
	if err := d.fsys.Remove(d.path(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: deleting %s: %w", name, err)
	}
	return nil
}

// scan sorts the directory's entries into documents, stale temp files,
// and subdirectories, each sorted by name.
func (d *dirTransport) scan() (docs, temps, dirs []string, err error) {
	entries, err := d.fsys.ReadDir(d.dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("persist: listing %s: %w", d.dir, err)
	}
	for _, e := range entries {
		switch name := e.Name(); {
		case e.IsDir():
			dirs = append(dirs, name)
		case strings.HasPrefix(name, tmpPrefix):
			temps = append(temps, name)
		default:
			docs = append(docs, name)
		}
	}
	return docs, temps, dirs, nil
}

func (d *dirTransport) list() ([]string, error) {
	docs, _, _, err := d.scan()
	return docs, err
}

// sweep deletes the stale ".tmp-*" files a crash between a put's
// CreateTemp and its Rename leaves behind — no later write reuses or
// reads one, so deleting is the only correct recovery — and returns the
// directory's subdirectories.
func (d *dirTransport) sweep() (dirs []string, err error) {
	_, temps, dirs, err := d.scan()
	if err != nil {
		return nil, err
	}
	for _, name := range temps {
		if err := d.remove(name); err != nil {
			return nil, fmt.Errorf("persist: sweeping stale temp file: %w", err)
		}
	}
	return dirs, nil
}

// loadLog reads the log through a read-write handle, so a torn tail is
// cut on the same file: truncated to the clean prefix, then synced so a
// crash right after cannot resurrect it.
func (d *dirTransport) loadLog(name string, parse func([]byte) (int64, bool, error)) (bool, error) {
	f, err := d.fsys.OpenFile(d.path(name), os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return false, fmt.Errorf("%w: %s", errNotFound, name)
	}
	if err != nil {
		return false, fmt.Errorf("persist: opening %s: %w", name, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return false, fmt.Errorf("persist: reading %s: %w", name, err)
	}
	clean, torn, err := parse(data)
	if err != nil || !torn {
		return false, err
	}
	if err := f.Truncate(clean); err != nil {
		return false, fmt.Errorf("persist: truncating torn tail of %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		return false, fmt.Errorf("persist: syncing truncated %s: %w", name, err)
	}
	return true, nil
}

// openLog opens (creating if needed) the session's log file at its end.
// Callers that need its records replayed must LoadWAL first.
func (d *dirTransport) openLog(id string, met *storeMetrics) (*WAL, error) {
	f, err := d.fsys.OpenFile(d.path(walName(id)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening wal for %s: %w", id, err)
	}
	w := &WAL{sink: fileSink{f: f, d: d}, id: id, met: met}
	if w.records, w.bytes, err = resumeLog(f, id); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// resumeLog readies an open log file for appending and returns its record
// count (the compaction thresholds survive a reopen) and size. A fresh
// file gets its header record; an existing one is cut at a torn tail that
// survived to here, so appends land on a frame boundary.
func resumeLog(f fault.File, id string) (records int, size int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("persist: stat wal for %s: %w", id, err)
	}
	if info.Size() == 0 {
		header := headerFrame(id)
		if _, err := f.Write(header); err != nil {
			return 0, 0, fmt.Errorf("persist: writing wal header for %s: %w", id, err)
		}
		return 0, int64(len(header)), nil
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, fmt.Errorf("persist: reading wal for %s: %w", id, err)
	}
	recs, size, _, err := parseWAL(data, id)
	if err != nil {
		return 0, 0, err
	}
	if size != info.Size() {
		if err := f.Truncate(size); err != nil {
			return 0, 0, fmt.Errorf("persist: truncating torn wal tail for %s: %w", id, err)
		}
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("persist: seeking wal for %s: %w", id, err)
	}
	return len(recs), size, nil
}

// fileSink is the state-directory log sink: writes go straight to the
// file (the OS page cache is the buffer) and sync is an fsync.
type fileSink struct {
	f fault.File
	d *dirTransport
}

func (k fileSink) write(p []byte) error { _, err := k.f.Write(p); return err }
func (k fileSink) sync() error          { return k.d.timedSync(k.f) }
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
