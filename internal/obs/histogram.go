package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Default bucket bounds, in seconds, for latency histograms: sub-100µs
// cache hits through multi-second universe sweeps.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are power-of-two bounds for count-valued histograms (batch
// sizes); the top bound matches the service's MaxBatchSize.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Histogram is a fixed-bucket histogram of lifetime cumulative buckets
// (Prometheus semantics — monotone _bucket/_sum/_count series).
// Observations are lock-free: atomic adds plus a CAS loop for the sum.
// All methods no-op (or return 0) on a nil receiver.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf overflow bucket

	sumBits atomic.Uint64
	life    []atomic.Uint64 // len(bounds)+1, lifetime per-bucket counts
}

// newHistogram builds a histogram over the given bounds (copied, sorted).
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, life: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	b := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.life[b].Add(1)
	addFloatBits(&h.sumBits, v)
}

// Sum returns the lifetime sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot renders the histogram's lifetime cumulative buckets, sum and
// count.
func (h *Histogram) snapshot() SampleSnapshot {
	s := SampleSnapshot{Sum: h.Sum()}
	var cum uint64
	s.Buckets = make([]BucketCount, 0, len(h.bounds)+1)
	for b, bound := range h.bounds {
		cum += h.life[b].Load()
		s.Buckets = append(s.Buckets, BucketCount{LE: bound, Count: cum})
	}
	cum += h.life[len(h.bounds)].Load()
	s.Buckets = append(s.Buckets, BucketCount{LE: math.Inf(1), Count: cum})
	// _count renders from the +Inf cumulative bucket so the pair stays
	// consistent under concurrent observation.
	s.Count = cum
	s.Value = float64(cum)
	return s
}
