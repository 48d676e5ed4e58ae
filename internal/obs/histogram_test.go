package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// decileBounds makes quantiles exactly computable: observing 1..100
// puts ten observations in each bucket, and linear interpolation
// recovers the true percentile.
var decileBounds = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

func TestQuantileKnownDistribution(t *testing.T) {
	h := newHistogram(decileBounds)
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.99, 99}, {1.0, 100}, {0.01, 1},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if h.count.Load() != 100 {
		t.Fatalf("count = %d, want 100", h.count.Load())
	}
	if want := 100.0 * 101 / 2; h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
}

func TestQuantileOverflowClampsToLargestBound(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1000)
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("overflow quantile = %v, want clamp to 2", got)
	}
}

func TestQuantileEmptyWindow(t *testing.T) {
	h := newHistogram(decileBounds)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestWindowRotationExpiresOldObservations(t *testing.T) {
	h := newHistogram(decileBounds)
	clock := time.Unix(1_000_000, 0)
	h.now = func() time.Time { return clock }

	h.Observe(50)
	if got := h.Quantile(1.0); got != 50 {
		t.Fatalf("in-window quantile = %v, want 50", got)
	}

	// One slot later the observation is still inside the rolling window.
	clock = clock.Add(histSlotDur)
	h.Observe(30)
	if got := h.Quantile(1.0); got != 50 {
		t.Fatalf("quantile after one slot = %v, want 50 (both visible)", got)
	}

	// Past the full window the old slots expire; the quantile readout
	// forgets them but the lifetime view never does.
	clock = clock.Add(histSlots * histSlotDur)
	h.Observe(10)
	if got := h.Quantile(1.0); got != 10 {
		t.Fatalf("quantile after window rollover = %v, want 10", got)
	}
	if h.count.Load() != 3 {
		t.Fatalf("lifetime count = %d, want 3", h.count.Load())
	}
	snap := h.snapshot()
	if snap.Count != 3 || snap.Buckets[len(snap.Buckets)-1].Count != 3 {
		t.Fatalf("lifetime buckets forgot expired observations: %+v", snap)
	}
}

func TestSlotReuseZeroesStaleCounts(t *testing.T) {
	h := newHistogram(decileBounds)
	clock := time.Unix(1_000_000, 0)
	h.now = func() time.Time { return clock }

	h.Observe(50)
	// Land on the same slot index one full rotation later: the writer
	// must zero the stale counts before recording.
	clock = clock.Add(histSlots * histSlotDur)
	h.Observe(20)
	if got := h.Quantile(1.0); got != 20 {
		t.Fatalf("stale slot counts leaked into window: max = %v, want 20", got)
	}
}

func TestSnapshotCumulativeBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3})
	for _, v := range []float64{0.5, 1.5, 1.7, 2.5, 99} {
		h.Observe(v)
	}
	s := h.snapshot()
	wantCum := []uint64{1, 3, 4, 5}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket[%d] = %d, want %d", i, s.Buckets[i].Count, want)
		}
	}
	if s.Count != 5 || s.Value != 5 {
		t.Fatalf("snapshot count = %d value = %v, want 5", s.Count, s.Value)
	}
}

func TestObserveSince(t *testing.T) {
	h := newHistogram(DefBuckets)
	clock := time.Unix(1_000_000, 0)
	h.now = func() time.Time { return clock }
	t0 := clock.Add(-3 * time.Millisecond)
	h.ObserveSince(t0)
	if h.count.Load() != 1 || math.Abs(h.Sum()-0.003) > 1e-12 {
		t.Fatalf("ObserveSince recorded count=%d sum=%v", h.count.Load(), h.Sum())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(decileBounds)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100 + 1))
				if i%100 == 0 {
					h.snapshot()
					h.Quantile(0.99)
				}
			}
		}(w)
	}
	wg.Wait()
	if h.count.Load() != workers*per {
		t.Fatalf("count = %d, want %d", h.count.Load(), workers*per)
	}
	s := h.snapshot()
	if s.Buckets[len(s.Buckets)-1].Count != workers*per {
		t.Fatalf("+Inf bucket = %d, want %d", s.Buckets[len(s.Buckets)-1].Count, workers*per)
	}
}

// ObserveSince records the elapsed seconds since t0 — the common latency
// call shape. It has no caller outside the tests in this file.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(h.now().Sub(t0).Seconds())
}
