// Package xeval is the universe-expectation engine: a chunked, parallel
// map/reduce layer over universe index ranges [0, |X|).
//
// Every hot path in the reproduction — population losses and gradients
// (convex.EvalOn, and convex.Sweep, which takes an iterate's value and
// gradient from one sweep), the public argmin solves (optimize, one
// Sweep.ValueGrad per iterate), the MW histogram materialization (mw),
// and the Claim-3.5 dual certificate (core) — is an expectation or
// per-element map over the dense universe. This package gives all of them
// one execution substrate with two properties the rest of the system
// relies on:
//
//  1. Determinism. Chunk boundaries depend only on the range length n
//     (fixed chunk size, never the worker count), and reductions combine
//     per-chunk partials with a fixed pairwise tree. The result is
//     bit-identical for every worker count, so "parallel" is a pure
//     speedup knob: privacy-relevant released values do not depend on how
//     many cores the server happens to have.
//
//  2. Zero coordination inside a chunk. Workers claim whole chunks from an
//     atomic counter and touch disjoint index ranges, so kernels may write
//     into disjoint slices of caller-owned buffers without locks.
//
// A nil *Engine is valid everywhere and means "serial": the same chunking
// and the same pairwise reduction run inline on the caller's goroutine.
//
// Cost model: a solver that sweeps one kernel every iterate builds one
// VecSum per solve, which holds the partial buffers and the chunk
// callback, and each Run allocates nothing on a serial or single-chunk
// sweep. MaterializePoints hands kernels pooled point matrices, so a
// steady-state sweep's only garbage is the goroutine handoff of a
// multi-chunk parallel run.
package xeval

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Observer receives one completed sweep's telemetry: the chunk count, the
// effective worker count, and the wall-clock duration in seconds. It runs
// on the sweeping goroutine after the reduction has completed, so it sees
// timing only — it cannot observe or perturb kernel inputs, partials, or
// the bit-exact result. Observers must be cheap and concurrency-safe.
type Observer func(chunks, workers int, seconds float64)

// observer is the process-wide sweep observer; nil (the default) makes
// instrumentation a single atomic load on the sweep path.
var observer atomic.Pointer[Observer]

// SetObserver installs or (with nil) removes the process-wide sweep
// observer. The serve command uses it to feed the sweep-duration
// histogram; tests and library users normally leave it unset.
func SetObserver(f Observer) {
	if f == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&f)
}

// ChunkSize is the fixed number of universe indices per chunk. It depends
// on nothing but this constant, so chunk boundaries — and therefore the
// reduction tree and the bit-exact result — are a function of n alone.
// 2048 elements amortize goroutine handoff (~µs) against per-chunk kernel
// work (tens of µs for GLM gradients) while still giving 32 chunks at
// |X| = 2^16 for load balancing across 8–16 workers.
const ChunkSize = 2048

// Engine schedules chunked map/reduce calls over index ranges. The zero
// of workers is resolved at construction; a nil *Engine runs serially.
// Engines are stateless between calls and safe for concurrent use.
type Engine struct {
	workers int
}

// New returns an engine with the given worker count. workers <= 0 selects
// runtime.NumCPU().
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Engine{workers: workers}
}

// Workers returns the engine's worker count (1 for a nil engine).
func (e *Engine) Workers() int {
	if e == nil {
		return 1
	}
	return e.workers
}

// Chunks returns the number of chunks an n-element range splits into.
func Chunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ChunkSize - 1) / ChunkSize
}

// chunkBounds returns the half-open index range of chunk c.
func chunkBounds(c, n int) (lo, hi int) {
	lo = c * ChunkSize
	hi = lo + ChunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// run executes f(c) for every chunk index c in [0, chunks), on the
// caller's goroutine when the engine is serial (or the range is a single
// chunk) and on min(workers, chunks) goroutines otherwise. It returns
// after every chunk has completed.
func (e *Engine) run(chunks int, f func(c int)) {
	if chunks <= 0 {
		return
	}
	w := e.Workers()
	if w > chunks {
		w = chunks
	}
	obs := observer.Load()
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	if w <= 1 {
		for c := 0; c < chunks; c++ {
			f(c)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for i := 0; i < w; i++ {
			go func() {
				defer wg.Done()
				for {
					c := int(next.Add(1)) - 1
					if c >= chunks {
						return
					}
					f(c)
				}
			}()
		}
		wg.Wait()
	}
	if obs != nil {
		(*obs)(chunks, w, time.Since(start).Seconds())
	}
}

// ForEach runs f over every chunk of [0, n). Chunks execute concurrently;
// f must only touch state associated with its own [lo, hi) range.
func (e *Engine) ForEach(n int, f func(lo, hi int)) {
	e.run(Chunks(n), func(c int) {
		lo, hi := chunkBounds(c, n)
		f(lo, hi)
	})
}

// Sum reduces f's per-chunk partial sums over [0, n) with a pairwise tree,
// returning 0 for an empty range. The combination order is fixed by n
// alone, so the result is bit-identical for every worker count.
func (e *Engine) Sum(n int, f func(lo, hi int) float64) float64 {
	chunks := Chunks(n)
	if chunks == 0 {
		return 0
	}
	parts := make([]float64, chunks)
	e.run(chunks, func(c int) {
		lo, hi := chunkBounds(c, n)
		parts[c] = f(lo, hi)
	})
	return pairwiseSum(parts)
}

// Max reduces f's per-chunk partial maxima over [0, n). It returns
// negative infinity semantics via ok=false for an empty range.
func (e *Engine) Max(n int, f func(lo, hi int) float64) (m float64, ok bool) {
	chunks := Chunks(n)
	if chunks == 0 {
		return 0, false
	}
	parts := make([]float64, chunks)
	e.run(chunks, func(c int) {
		lo, hi := chunkBounds(c, n)
		parts[c] = f(lo, hi)
	})
	m = parts[0]
	for _, v := range parts[1:] {
		if v > m {
			m = v
		}
	}
	return m, true
}

// VecSum is a reusable vector reduction over a fixed range length n,
// partial length dim and chunk kernel f. Each Run accumulates f's
// per-chunk partial vectors, each chunk into its own zeroed buffer, and
// combines them with the same pairwise tree as Sum, coordinate by
// coordinate, so the result is bit-deterministic. The partial buffers and
// the chunk callback are allocated once, at construction, so a solver
// that sweeps the same kernel every iterate allocates nothing per sweep;
// a one-shot reduction is NewVecSum(n, len(dst), f).Run(dst). A VecSum is
// not safe for concurrent Runs.
type VecSum struct {
	e      *Engine
	chunks int
	parts  [][]float64
	chunk  func(c int)
}

// NewVecSum builds the reduction of f's per-chunk partial vectors of
// length dim over [0, n) on e.
func (e *Engine) NewVecSum(n, dim int, f func(lo, hi int, out []float64)) *VecSum {
	chunks := Chunks(n)
	// Kernels accumulate into out once per element, so partials that
	// share a cache line make concurrent workers contend for it on every
	// write: a gap of one line (8 float64s) between partials keeps them
	// apart.
	stride := dim + 8
	backing := make([]float64, chunks*stride)
	parts := make([][]float64, chunks)
	for c := range parts {
		parts[c] = backing[c*stride : c*stride+dim : c*stride+dim]
	}
	return &VecSum{e: e, chunks: chunks, parts: parts, chunk: func(c int) {
		lo, hi := chunkBounds(c, n)
		f(lo, hi, parts[c])
	}}
}

// Run sweeps the kernel over every chunk, writes the pairwise-tree sum of
// the partials into dst (len dim, zeroed first) and returns dst. Every
// chunk's partial starts the sweep at zero, whatever the previous Run
// left in it: a chunk whose kernel writes nothing contributes zeros.
func (s *VecSum) Run(dst []float64) []float64 {
	clear(dst)
	if s.chunks == 0 {
		return dst
	}
	for _, p := range s.parts {
		clear(p)
	}
	s.e.run(s.chunks, s.chunk)
	copy(dst, pairwiseSumVec(s.parts))
	return dst
}

// pairwiseSum combines partials with a balanced binary tree: split in
// half, sum each half recursively, add. Beyond determinism this bounds
// rounding error growth at O(log n) instead of O(n).
func pairwiseSum(parts []float64) float64 {
	switch len(parts) {
	case 0:
		return 0
	case 1:
		return parts[0]
	case 2:
		return parts[0] + parts[1]
	}
	mid := len(parts) / 2
	return pairwiseSum(parts[:mid]) + pairwiseSum(parts[mid:])
}

// pairwiseSumVec combines partial vectors with the same tree shape as
// pairwiseSum, accumulating the right half into the left in place.
func pairwiseSumVec(parts [][]float64) []float64 {
	switch len(parts) {
	case 1:
		return parts[0]
	case 2:
		a, b := parts[0], parts[1]
		for i := range a {
			a[i] += b[i]
		}
		return a
	}
	mid := len(parts) / 2
	a := pairwiseSumVec(parts[:mid])
	b := pairwiseSumVec(parts[mid:])
	for i := range a {
		a[i] += b[i]
	}
	return a
}
