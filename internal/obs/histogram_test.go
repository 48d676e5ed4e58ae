package obs

import (
	"sync"
	"testing"
)

// decileBounds splits 1..100 into ten buckets of ten.
var decileBounds = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

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
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Buckets[len(s.Buckets)-1].Count != workers*per {
		t.Fatalf("+Inf bucket = %d, want %d", s.Buckets[len(s.Buckets)-1].Count, workers*per)
	}
}
