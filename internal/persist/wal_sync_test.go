package persist

// wal_sync_test.go covers WAL.Sync's rules over both sinks: concurrent
// sessions each syncing their own log lose no record, and two syncs of
// one log never overlap.

import (
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestWALSyncDurability drives several sessions concurrently, each
// appending to and syncing its own log: every Sync must return nil only
// once its records are in the log.
func TestWALSyncDurability(t *testing.T) {
	forEachTransport(t, nil, func(t *testing.T, b *Store, _ string) {
		const sessions, perSession = 4, 8
		var wg sync.WaitGroup
		errc := make(chan error, sessions)
		for i := 1; i <= sessions; i++ {
			w, err := b.OpenWAL(fmt.Sprintf("s-%06d", i))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 1; j <= perSession; j++ {
					if err := w.Append(walEvent(j)); err != nil {
						errc <- err
						return
					}
					if err := w.Sync(); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		for i := 1; i <= sessions; i++ {
			recs, err := b.LoadWAL(fmt.Sprintf("s-%06d", i))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != perSession {
				t.Fatalf("log %d holds %d records, want %d", i, len(recs), perSession)
			}
		}
	})
}

// syncOverlapFS passes through to the real filesystem and records the
// most file syncs ever in flight at once.
type syncOverlapFS struct {
	fault.FS
	inflight, most atomic.Int32
}

func (o *syncOverlapFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	f, err := o.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return overlapFile{File: f, fs: o}, nil
}

type overlapFile struct {
	fault.File
	fs *syncOverlapFS
}

func (f overlapFile) Sync() error {
	n := f.fs.inflight.Add(1)
	defer f.fs.inflight.Add(-1)
	for m := f.fs.most.Load(); n > m && !f.fs.most.CompareAndSwap(m, n); m = f.fs.most.Load() {
	}
	time.Sleep(time.Millisecond) // widen the window an overlapping sync would hit
	return f.File.Sync()
}

// TestWALConcurrentSyncOneLog: two goroutines commit to one log at once,
// as two requests of one session do — appends serialized (the service's
// save mutex), syncs not. Both sinks must run the syncs one at a time: a
// blob log's second conditional append would otherwise race the first
// for the same offset, and a file log's fsyncs must not overlap.
func TestWALConcurrentSyncOneLog(t *testing.T) {
	ofs := &syncOverlapFS{FS: fault.OS}
	forEachTransport(t, ofs, func(t *testing.T, b *Store, _ string) {
		const id, perWriter = "s-000001", 16
		w, err := b.OpenWAL(id)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var appendMu sync.Mutex
		seq := 0
		var wg sync.WaitGroup
		errc := make(chan error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perWriter; j++ {
					appendMu.Lock()
					seq++
					err := w.Append(walEvent(seq))
					appendMu.Unlock()
					if err == nil {
						err = w.Sync()
					}
					if err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		recs, err := b.LoadWAL(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2*perWriter {
			t.Fatalf("log holds %d records, want %d", len(recs), 2*perWriter)
		}
		for i, r := range recs {
			if r.Seq != i+1 {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
		}
	})
	if got := ofs.most.Load(); got != 1 {
		t.Fatalf("%d fsyncs of one log ran at once, want 1", got)
	}
}
