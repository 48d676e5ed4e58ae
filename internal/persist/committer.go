package persist

// committer.go is the manager-level group commit behind session WALs.
//
// The write-ahead rule makes every ⊤ answer wait for its record to be
// durable, and fsync is the expensive part — orders of magnitude over the
// append itself. With p sessions answering misses concurrently, syncing
// each WAL individually costs p fsyncs per round of answers even though
// the drive could have hardened all of them in one. The GroupCommitter
// funnels those waits through one goroutine: requests that arrive together
// are flushed together, one fsync per distinct WAL file per batch, and
// every waiter in the batch is released by the same flush.
//
// Batching policy ("flush-on-idle"): the committer drains whatever
// requests are already queued into the current batch and flushes the
// moment the queue goes idle, so a lone writer pays no added latency. Only
// while requests keep streaming in does the commit window (default ~2ms)
// bound how long a batch stays open — under saturation that is ~one fsync
// per window instead of one per waiting session. The window is a
// latency/throughput dial, never a correctness dial: a Sync call returns
// only after an fsync that covers every byte the caller appended.

import (
	"runtime"
	"sync"
	"time"
)

// DefaultCommitWindow is the default upper bound on how long a group-commit
// batch stays open while requests keep arriving.
const DefaultCommitWindow = 2 * time.Millisecond

// GroupCommitter batches WAL fsyncs across sessions. Create one per
// manager with NewGroupCommitter; Sync is safe for concurrent use. A nil
// *GroupCommitter degrades to per-call direct fsyncs, so callers can hold
// one optionally.
type GroupCommitter struct {
	window time.Duration
	reqs   chan commitReq
	done   chan struct{}

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// commitReq is one session's pending durability wait.
type commitReq struct {
	w    *WAL
	done chan error
}

// NewGroupCommitter starts a committer whose batches stay open at most
// window while requests keep arriving (window <= 0 selects
// DefaultCommitWindow).
func NewGroupCommitter(window time.Duration) *GroupCommitter {
	if window <= 0 {
		window = DefaultCommitWindow
	}
	c := &GroupCommitter{
		window: window,
		reqs:   make(chan commitReq, 64),
		done:   make(chan struct{}),
	}
	go c.run()
	return c
}

// Sync blocks until every record appended to w before the call is durable.
// Concurrent callers syncing any set of WALs share fsyncs. On a nil or
// closed committer it degrades to a direct w.Sync().
func (c *GroupCommitter) Sync(w *WAL) error {
	if c == nil {
		return w.Sync()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return w.Sync()
	}
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()
	req := commitReq{w: w, done: make(chan error, 1)}
	c.reqs <- req
	return <-req.done
}

// Close stops the committer after completing every in-flight Sync.
// Subsequent Sync calls fall back to direct fsyncs, so closing is safe
// while sessions are still live (shutdown ordering stays simple). A nil
// committer ignores Close.
func (c *GroupCommitter) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.wg.Wait()
	close(c.reqs)
	<-c.done
}

// run is the committer goroutine: collect a batch, flush it, repeat.
func (c *GroupCommitter) run() {
	defer close(c.done)
	for first := range c.reqs {
		batch := c.collect(first)
		flush(batch)
	}
}

// collect builds one batch: everything already queued, then — only while
// more requests keep arriving — up to window longer. A batch closes early
// ("flush-on-idle") once the queue stays empty through a handful of
// scheduler yields: a concurrent committer that was just released is
// already runnable and re-enqueues within the yields, so back-to-back
// writers coalesce, while a lone writer pays microseconds — never the
// window — in added latency. (The grace is yield-based, not timer-based:
// sub-millisecond timers cost ~1ms of scheduling granularity, which would
// dwarf the fsync being amortized.)
func (c *GroupCommitter) collect(first commitReq) []commitReq {
	batch := []commitReq{first}
	deadline := time.NewTimer(c.window)
	defer deadline.Stop()
	for {
		select {
		case r, ok := <-c.reqs:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		case <-deadline.C:
			return batch
		default:
			got := false
			t0 := time.Now()
			for i := 0; i < idleYields && time.Since(t0) < idleGrace && !got; i++ {
				runtime.Gosched()
				select {
				case r, ok := <-c.reqs:
					if !ok {
						return batch
					}
					batch = append(batch, r)
					got = true
				default:
				}
			}
			if !got {
				return batch
			}
		}
	}
}

// idleYields and idleGrace bound the straggler grace collect grants before
// declaring the queue idle and flushing: a handful of scheduler yields,
// but never more wall clock than a fraction of an fsync. The time bound
// matters on small GOMAXPROCS, where a single Gosched can run the whole
// queue of compute-heavy goroutines and would otherwise stretch "a few
// yields" into many milliseconds of commit latency.
const (
	idleYields = 16
	idleGrace  = 200 * time.Microsecond
)

// flush hardens the batch: each distinct WAL is fsynced exactly once, and
// the distinct files sync in parallel, so a batch of p sessions costs ~one
// fsync latency instead of p serialized fsyncs — that parallelism, plus
// the per-file dedup across waiters, is the whole group-commit win. Every
// waiter then receives its own file's result.
func flush(batch []commitReq) {
	errs := make(map[*WAL]error, 1)
	for _, r := range batch {
		errs[r.w] = nil
	}
	if len(errs) == 1 {
		errs[batch[0].w] = batch[0].w.Sync()
	} else {
		files := make([]*WAL, 0, len(errs))
		for w := range errs {
			files = append(files, w)
		}
		res := make([]error, len(files))
		var wg sync.WaitGroup
		for i, w := range files {
			wg.Add(1)
			go func(i int, w *WAL) {
				defer wg.Done()
				res[i] = w.Sync()
			}(i, w)
		}
		wg.Wait()
		for i, w := range files {
			errs[w] = res[i]
		}
	}
	if m := batch[0].w.met; m != nil {
		m.walBatch.Observe(float64(len(errs)))
	}
	for _, r := range batch {
		r.done <- errs[r.w]
	}
}
