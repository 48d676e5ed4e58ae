package persist

// committer_test.go covers the GroupCommitter's error paths: the degrade
// contract after Close, and — via the fault seam — fsync failures reaching
// every waiter whose file failed, with no waiter left blocked.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestGroupCommitterClosedDegradesToDirectSync: after Close, Sync must
// keep the durability contract by falling back to a direct fsync.
func TestGroupCommitterClosedDegradesToDirectSync(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	c := NewGroupCommitter(0)
	c.Close()
	c.Close() // idempotent

	if err := w.Append(walEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(w); err != nil {
		t.Fatalf("closed-committer Sync: %v", err)
	}
	recs, err := st.LoadWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records after closed-committer sync, want 1", len(recs))
	}

	// A nil committer degrades the same way.
	var nilC *GroupCommitter
	if err := w.Append(walEvent(2)); err != nil {
		t.Fatal(err)
	}
	if err := nilC.Sync(w); err != nil {
		t.Fatalf("nil-committer Sync: %v", err)
	}
	nilC.Close()
}

// TestGroupCommitterFsyncErrorReachesAllWaiters: when a batch's fsyncs
// fail, every waiter whose file failed must get the error — a waiter
// released with a nil error would treat an answer as durable when it is
// not, which breaks the write-ahead rule.
func TestGroupCommitterFsyncErrorReachesAllWaiters(t *testing.T) {
	// Every fsync fails, every other op passes: the WALs open and append
	// normally, then the whole commit batch fails.
	plan := fault.NewPlan(fault.Fault{Op: -1, Kind: fault.OpSync, Mode: fault.ModeErr})
	st, err := OpenFS(t.TempDir(), fault.Wrap(fault.OS, plan))
	if err != nil {
		t.Fatal(err)
	}

	const nWALs, perWAL = 2, 4
	wals := make([]*WAL, nWALs)
	for i := range wals {
		if wals[i], err = st.OpenWAL(fmt.Sprintf("s-%06d", i+1)); err != nil {
			t.Fatal(err)
		}
		defer wals[i].Close()
	}

	c := NewGroupCommitter(2 * time.Millisecond)
	defer c.Close()

	var mu sync.Mutex
	var appendErr error
	errs := make([]error, nWALs*perWAL)
	var wg sync.WaitGroup
	for i := 0; i < nWALs*perWAL; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := wals[i%nWALs]
			mu.Lock()
			err := w.Append(walEvent(i + 1))
			mu.Unlock()
			if err != nil {
				mu.Lock()
				appendErr = err
				mu.Unlock()
				return
			}
			errs[i] = c.Sync(w)
		}(i)
	}
	wg.Wait()
	if appendErr != nil {
		t.Fatalf("append failed under sync-only fault plan: %v", appendErr)
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d released with nil error from a failed fsync batch", i)
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("waiter %d error = %v, want the injected fsync error", i, err)
		}
	}
	if plan.Fired() == 0 {
		t.Fatal("no fsync fault fired")
	}
}

// TestGroupCommitterPartialBatchFailure: when only one file of a batch
// fails, its waiters get the error and the other file's waiters commit
// cleanly — errors are per-file, never smeared across the batch.
func TestGroupCommitterPartialBatchFailure(t *testing.T) {
	dir := t.TempDir()
	plan := fault.NewPlan()
	st, err := OpenFS(dir, fault.Wrap(fault.OS, plan))
	if err != nil {
		t.Fatal(err)
	}
	good, err := st.OpenWAL("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	bad, err := st.OpenWAL("s-000002")
	if err != nil {
		t.Fatal(err)
	}
	// Closing the file under the WAL makes its fsync fail like a revoked
	// descriptor, without touching the good file's path.
	bad.Close()

	if err := good.Append(walEvent(1)); err != nil {
		t.Fatal(err)
	}

	c := NewGroupCommitter(time.Second) // wide window: both requests share one batch
	defer c.Close()
	var wg sync.WaitGroup
	var goodErr, badErr error
	wg.Add(2)
	go func() { defer wg.Done(); goodErr = c.Sync(good) }()
	go func() { defer wg.Done(); badErr = c.Sync(bad) }()
	wg.Wait()

	if goodErr != nil {
		t.Fatalf("healthy file's waiter got its batch-mate's error: %v", goodErr)
	}
	if badErr == nil {
		t.Fatal("failed file's waiter released with nil error")
	}
}
