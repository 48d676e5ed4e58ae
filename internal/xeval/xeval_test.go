package xeval

import (
	"math"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestChunksBoundaries checks the chunk decomposition covers [0, n)
// exactly once, in order, for awkward sizes.
func TestChunksBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 2, ChunkSize - 1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 7, 1 << 16} {
		chunks := Chunks(n)
		covered := 0
		prevHi := 0
		for c := 0; c < chunks; c++ {
			lo, hi := chunkBounds(c, n)
			if lo != prevHi {
				t.Fatalf("n=%d chunk %d starts at %d, want %d", n, c, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("n=%d chunk %d empty [%d,%d)", n, c, lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != n {
			t.Fatalf("n=%d chunks cover %d indices", n, covered)
		}
	}
}

// TestSumDeterministicAcrossWorkers asserts the core engine contract:
// Sum/VecSum/Max are bit-identical for every worker count, including the
// nil (serial) engine. One VecSum per engine serves every repetition, so
// partials a previous Run left behind would show here.
func TestSumDeterministicAcrossWorkers(t *testing.T) {
	const n = 3*ChunkSize + 311
	vals := make([]float64, n)
	for i := range vals {
		// Mix magnitudes so summation order would show up in the low bits.
		vals[i] = math.Sin(float64(i)) * math.Exp(float64(i%37)-18)
	}
	sum := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	max := func(lo, hi int) float64 {
		m := math.Inf(-1)
		for i := lo; i < hi; i++ {
			if vals[i] > m {
				m = vals[i]
			}
		}
		return m
	}
	vec := func(lo, hi int, out []float64) {
		for i := lo; i < hi; i++ {
			out[i%7] += vals[i]
		}
	}

	var nilEngine *Engine
	wantSum := nilEngine.Sum(n, sum)
	wantMax, ok := nilEngine.Max(n, max)
	if !ok {
		t.Fatal("Max reported empty range")
	}
	wantVec := nilEngine.NewVecSum(n, 7, vec).Run(make([]float64, 7))

	for _, w := range []int{1, 2, 3, 4, 8, 16, 33} {
		e := New(w)
		vs := e.NewVecSum(n, 7, vec)
		// Several repetitions: scheduling varies, results must not.
		for rep := 0; rep < 3; rep++ {
			if got := e.Sum(n, sum); got != wantSum {
				t.Errorf("workers=%d Sum = %v, want bit-identical %v", w, got, wantSum)
			}
			if got, _ := e.Max(n, max); got != wantMax {
				t.Errorf("workers=%d Max = %v, want %v", w, got, wantMax)
			}
			got := vs.Run(make([]float64, 7))
			for i := range got {
				if got[i] != wantVec[i] {
					t.Errorf("workers=%d VecSum[%d] = %v, want bit-identical %v", w, i, got[i], wantVec[i])
				}
			}
		}
	}
}

// TestSumVecPartialsApart checks that no two chunks' partial vectors
// fall within one 64-byte cache line of each other, so kernels that
// accumulate into them per element never contend across workers.
func TestSumVecPartialsApart(t *testing.T) {
	const n, dim = 5*ChunkSize + 1, 5
	addrs := make([]uintptr, Chunks(n))
	New(1).NewVecSum(n, dim, func(lo, hi int, out []float64) {
		addrs[lo/ChunkSize] = uintptr(unsafe.Pointer(&out[0]))
	}).Run(make([]float64, dim))
	for c := 1; c < len(addrs); c++ {
		if gap := addrs[c] - (addrs[c-1] + dim*8); addrs[c] < addrs[c-1] || gap < 64 {
			t.Errorf("partials %d and %d are %d bytes apart, want at least 64", c-1, c, int(gap))
		}
	}
}

// TestForEachCoversAll runs ForEach in parallel and checks every index is
// visited exactly once (atomic counters keep the test race-clean).
func TestForEachCoversAll(t *testing.T) {
	const n = 5*ChunkSize + 13
	e := New(8)
	seen := make([]atomic.Int32, n)
	e.ForEach(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	})
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestEmptyAndTinyRanges exercises degenerate sizes.
func TestEmptyAndTinyRanges(t *testing.T) {
	e := New(4)
	if got := e.Sum(0, func(lo, hi int) float64 { t.Fatal("called"); return 0 }); got != 0 {
		t.Errorf("empty Sum = %v", got)
	}
	if _, ok := e.Max(0, nil); ok {
		t.Error("empty Max reported ok")
	}
	if got := e.Sum(1, func(lo, hi int) float64 { return float64(hi - lo) }); got != 1 {
		t.Errorf("Sum over one element = %v", got)
	}
	dst := e.NewVecSum(0, 2, nil).Run([]float64{1, 2})
	if dst[0] != 0 || dst[1] != 0 {
		t.Errorf("empty VecSum = %v", dst)
	}
}

// TestWorkersResolution checks the worker-count knob semantics.
func TestWorkersResolution(t *testing.T) {
	if w := (*Engine)(nil).Workers(); w != 1 {
		t.Errorf("nil engine workers = %d", w)
	}
	if w := New(3).Workers(); w != 3 {
		t.Errorf("New(3) workers = %d", w)
	}
	if w := New(0).Workers(); w < 1 {
		t.Errorf("New(0) workers = %d, want NumCPU ≥ 1", w)
	}
	if w := New(-5).Workers(); w < 1 {
		t.Errorf("New(-5) workers = %d, want NumCPU ≥ 1", w)
	}
}

// TestPairwiseSumMatchesKahanScale sanity-checks the pairwise tree against
// a widely different summation order on an ill-conditioned input.
func TestPairwiseSumMatchesKahanScale(t *testing.T) {
	const n = 4 * ChunkSize
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1e-8
	}
	vals[0] = 1e8
	e := New(8)
	got := e.Sum(n, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	})
	// Within-chunk accumulation next to the 1e8 entry rounds at ~2e-8 per
	// add; the pairwise tree caps the growth at O(log chunks) beyond that.
	want := 1e8 + float64(n-1)*1e-8
	if math.Abs(got-want) > 1e-4 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}
